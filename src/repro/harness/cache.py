"""Content-addressed on-disk cache of scenario measurements.

Every run of the paper's grid is a pure function of ``(scenario spec,
seed)`` — the determinism the lint rules and invariant tests enforce.
That purity makes results cacheable: the cache key is a SHA-256 over the
scenario's canonical serialization (:meth:`Scenario.cache_key`), the
repetition seed, and a schema version, so re-running ``greenenvy grid``
with unchanged parameters replays stored measurements instead of
simulating. Bumping :data:`SCHEMA_VERSION` (whenever the simulator's
physics or the measurement schema change) invalidates every old entry
at once without touching the files.

Values are JSON documents holding the *complete* :class:`RunMeasurement`
— throughput series included — because a cache hit must be
bit-identical to the run that produced it. Python floats round-trip
exactly through ``json`` (repr-based encoding), so equality is exact,
not approximate.

Only deterministic inputs may reach the key: never wall-clock times or
process ids (the ``det-wall-clock`` / ``det-process-identity`` lint
rules police this).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.apps.iperf import IperfResult
from repro.errors import ExperimentError
from repro.harness.experiment import AnyScenario
from repro.harness.runner import RunMeasurement
from repro.obs.journal import worker_id
from repro.sim.trace import TimeSeries

#: bump when simulator physics or the measurement schema change; every
#: previously cached entry becomes a miss
#: (2: throughput series renamed to the telemetry "entity:channel" form)
#: (3: fabric runs — the ``extras`` energy-split map joined the schema)
#: (4: the scheduling-policy redesign — ``policy`` joined both scenario
#:  specs, single-link runs grew FCT-percentile extras)
#: (5: the per-package power series left the measurement; a run's
#:  power over time is its ``power_w`` telemetry)
#: (6: a run carries its per-mechanism energy split)
SCHEMA_VERSION = 6

#: numbers this process's entry writes, so no two of them share a temp file
_WRITE_SERIAL = itertools.count()


def compute_key(
    scenario: AnyScenario, seed: int, schema_version: int = SCHEMA_VERSION
) -> str:
    """The content address of one (scenario, seed) measurement."""
    payload = json.dumps(
        {
            "schema": schema_version,
            "seed": seed,
            "scenario": scenario.cache_key(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _series_to_dict(series: TimeSeries) -> Dict[str, Any]:
    return {
        "name": series.name,
        "times": list(series.times),
        "values": list(series.values),
    }


def _series_from_dict(data: Dict[str, Any]) -> TimeSeries:
    return TimeSeries(
        name=data["name"], times=list(data["times"]), values=list(data["values"])
    )


def measurement_to_dict(measurement: RunMeasurement) -> Dict[str, Any]:
    """A lossless JSON-ready record of one run (series included)."""
    return {
        "scenario": measurement.scenario,
        "seed": measurement.seed,
        "energy_j": measurement.energy_j,
        "duration_s": measurement.duration_s,
        "bottleneck_drops": measurement.bottleneck_drops,
        "ecn_marks": measurement.ecn_marks,
        "flow_results": [
            {
                "flow_id": r.flow_id,
                "cca": r.cca,
                "bytes_transferred": r.bytes_transferred,
                "start_time": r.start_time,
                "end_time": r.end_time,
                "retransmissions": r.retransmissions,
            }
            for r in measurement.flow_results
        ],
        "throughput_series": {
            str(flow_id): _series_to_dict(s)
            for flow_id, s in measurement.throughput_series.items()
        },
        "extras": dict(measurement.extras),
        "energy_components_j": dict(measurement.energy_components_j),
    }


def measurement_from_dict(data: Dict[str, Any]) -> RunMeasurement:
    """Rebuild a :class:`RunMeasurement` from its JSON record."""
    return RunMeasurement(
        scenario=data["scenario"],
        seed=data["seed"],
        energy_j=data["energy_j"],
        duration_s=data["duration_s"],
        flow_results=[IperfResult(**flow) for flow in data["flow_results"]],
        bottleneck_drops=data["bottleneck_drops"],
        ecn_marks=data["ecn_marks"],
        throughput_series={
            int(flow_id): _series_from_dict(s)
            for flow_id, s in data["throughput_series"].items()
        },
        extras=dict(data["extras"]),
        energy_components_j=dict(data["energy_components_j"]),
    )


class ResultCache:
    """A directory of content-addressed measurement files.

    Entries are sharded two levels deep (``ab/abcdef….json``) so even
    hundred-thousand-entry grids keep directory listings fast. ``get``
    treats unreadable or corrupt entries as misses — the run is simply
    repeated and the entry rewritten.
    """

    def __init__(
        self,
        root: Union[str, Path],
        schema_version: int = SCHEMA_VERSION,
    ):
        self.root = Path(root)
        self.schema_version = schema_version
        self.hits = 0
        self.misses = 0
        self.root.mkdir(parents=True, exist_ok=True)

    def key(self, scenario: AnyScenario, seed: int) -> str:
        return compute_key(scenario, seed, self.schema_version)

    def path(self, key: str) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[RunMeasurement]:
        """:meth:`get` for a caller that already holds the item's key."""
        try:
            data = json.loads(self.path(key).read_text(encoding="utf-8"))
            measurement = measurement_from_dict(data)
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return measurement

    def save(self, key: str, measurement: RunMeasurement) -> Path:
        """:meth:`put` for a caller that already holds the item's key.

        The write is atomic (temp file + rename) so a crashed run never
        leaves a truncated entry behind, and the temp name is unique per
        writer (pid + a per-process serial): two sweeps sharing a cache
        directory that finish the same item each rename their own file,
        and the entry is whichever complete document landed last.
        """
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{key}.{worker_id()}.{next(_WRITE_SERIAL)}.tmp")
        tmp.write_text(
            json.dumps(measurement_to_dict(measurement)), encoding="utf-8"
        )
        tmp.replace(path)
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))


def ensure_cache(
    cache: Union[None, str, Path, ResultCache],
) -> Optional[ResultCache]:
    """Coerce a cache argument (path or instance) to a ResultCache."""
    if cache is None or isinstance(cache, ResultCache):
        return cache
    if isinstance(cache, (str, Path)):
        return ResultCache(cache)
    raise ExperimentError(
        f"cache must be a path or ResultCache, got {type(cache).__name__}"
    )
