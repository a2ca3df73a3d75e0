"""Figure 3: throughput over time — fair sharing vs full speed, then idle.

Paper claims reproduced here:
* fair: both flows hold ~C/2 until both finish,
* serialized: each flow bursts at ~C then idles,
* every flow in both panels has the same experiment-window average (~C/2).
"""

import pytest

from benchmarks.conftest import TWO_FLOW_BYTES, run_benchmarked
from repro.figures.fig3 import run_fig3


def test_fig3_timeseries(benchmark):
    result = run_benchmarked(
        benchmark,
        lambda: run_fig3(transfer_bytes=TWO_FLOW_BYTES, probe_interval_s=1e-3),
    )
    for panel in ("fair", "serialized"):
        print(f"\n== Figure 3 ({panel}) throughput (Gb/s per ms) ==")
        for flow, series in result.panel(panel):
            line = " ".join(f"{v / 1e9:4.1f}" for v in series.values)
            print(f"flow {flow}: {line}")

    # Fair panel: both flows cruise near 5 Gb/s.
    for _flow, series in result.panel("fair"):
        busy = [v for v in series.values if v > 1e9]
        assert sum(busy) / len(busy) == pytest.approx(5e9, rel=0.15)

    # Serialized panel: each flow peaks near line rate.
    for _flow, series in result.panel("serialized"):
        assert max(series.values) > 8.5e9

    # Same average throughput over the window in both panels (the paper's
    # point: identical work, very different energy).
    for panel in ("fair", "serialized"):
        for avg in result.mean_throughputs_gbps(panel):
            assert avg == pytest.approx(5.0, rel=0.2)
