"""Telemetry persistence: probe-sink series as JSONL in a trace dir.

The sim-side half of the telemetry channel is
:mod:`repro.sim.probe` — a neutral sink protocol components emit into.
This module is the obs-side half: it serializes a
:class:`~repro.sim.probe.TimeSeriesProbeSink`'s collected streams into
``telemetry.jsonl`` next to the run journal, one JSON object per
(scenario, seed, channel, entity) series::

    {"scenario": "fig1-fair", "seed": 0, "channel": "cwnd_bytes",
     "entity": "flow-1", "times": [...], "values": [...]}

Process-pool safety is the journal's (one :mod:`repro.obs.stream`
life cycle): workers append to their own
``telemetry-worker-<wid>.jsonl`` partial (the name deliberately does
*not* match the journal's ``worker-*.jsonl`` glob) and the coordinator
merges partials into the main file after each batch, sorted by
(scenario, seed, channel, entity) so the merged file is independent of
worker interleaving.

Everything here is stamped with virtual time only — records carry no
wall clock and no process identity, so telemetry files are directly
diffable across runs.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.stream import StreamSpec, StreamWriter
from repro.sim.probe import TimeSeriesProbeSink
from repro.units import msec

#: filename of the merged telemetry file inside a trace dir
TELEMETRY_FILENAME = "telemetry.jsonl"

#: glob pattern of per-worker telemetry partials awaiting merge
TELEMETRY_WORKER_GLOB = "telemetry-worker-*.jsonl"

#: default downsampling interval for traced runs: 1 ms of virtual time
#: per stream keeps per-ACK channels (microsecond spacing at 10 Gb/s)
#: from dominating the trace while preserving figure-grade resolution
DEFAULT_TELEMETRY_INTERVAL_S = msec(1.0)


def _series_order(_position: int, record: Dict[str, Any]):
    return (
        str(record.get("scenario", "")),
        record.get("seed", 0),
        str(record.get("channel", "")),
        str(record.get("entity", "")),
    )


#: telemetry as a record stream; canonical, so the closed file is
#: byte-identical across ``jobs=`` and run-completion order
TELEMETRY = StreamSpec(
    kind="telemetry",
    filename=TELEMETRY_FILENAME,
    worker_glob=TELEMETRY_WORKER_GLOB,
    required=("scenario", "seed", "channel", "entity", "times", "values"),
    sort_key=_series_order,
    canonical=True,
)


def telemetry_records(
    sink: TimeSeriesProbeSink, scenario: str, seed: int
) -> List[Dict[str, Any]]:
    """Serialize a probe sink's streams to record dicts, key-ordered."""
    records: List[Dict[str, Any]] = []
    for (channel, entity), series in sink.items():
        records.append(
            {
                "scenario": scenario,
                "seed": seed,
                "channel": channel,
                "entity": entity,
                "times": list(series.times),
                "values": list(series.values),
            }
        )
    return records


class TelemetryWriter(StreamWriter):
    """The telemetry stream's writer: one record per collected series."""

    spec = TELEMETRY

    def write_sink(
        self, sink: TimeSeriesProbeSink, scenario: str, seed: int
    ) -> int:
        """Append every stream of ``sink``; returns records written."""
        records = telemetry_records(sink, scenario, seed)
        for record in records:
            self.write_record(record)
        return len(records)


telemetry_path = TELEMETRY.path
read_telemetry = TELEMETRY.read
