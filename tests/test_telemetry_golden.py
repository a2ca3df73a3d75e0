"""Golden telemetry of one two-flow run: power, energy and goodput.

A run's power over time is its ``power_w`` telemetry, its metered
energy the ``energy_j`` sample at window close, and each flow's goodput
over time the probe series the measurement carries. This file pins all
three, sample for sample, for one traced two-flow scenario with
throughput probes on; every float is written as its ``repr``, so the
comparison is exact. A refactor of how a run records what it measures
must leave ``tests/golden/telemetry/two_flow.txt`` unchanged. To
regenerate after a deliberate change, run ``PYTHONPATH=src python -m
tests.test_telemetry_golden`` and review the diff.
"""

from pathlib import Path

from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import run_once
from repro.sim.probe import ENERGY_CHANNEL, POWER_CHANNEL, TimeSeriesProbeSink
from repro.units import msec

GOLDEN = Path(__file__).resolve().parent / "golden" / "telemetry" / "two_flow.txt"

SCENARIO = Scenario(
    "telemetry-golden",
    flows=[FlowSpec(4_000_000), FlowSpec(4_000_000, cca="bbr")],
    probe_interval_s=msec(1.0),
)
SEED = 3


def _series_lines(title, series):
    lines = [f"{title} {len(series)}"]
    lines.extend(f"{time!r} {value!r}" for time, value in series)
    return lines


def render():
    """Each pinned stream as a ``<what> <count>`` line, then one
    ``time value`` line per sample."""
    sink = TimeSeriesProbeSink()
    measurement = run_once(SCENARIO, seed=SEED, probe_sink=sink)
    lines = []
    for (channel, entity), series in sink.items():
        if channel in (POWER_CHANNEL, ENERGY_CHANNEL):
            lines.extend(_series_lines(f"{channel} {entity}", series))
    for flow_id in sorted(measurement.throughput_series):
        series = measurement.throughput_series[flow_id]
        lines.extend(_series_lines(f"throughput_series {series.name}", series))
    return "\n".join(lines) + "\n"


def test_two_flow_telemetry_matches_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(render(), encoding="utf-8")
