"""Tests for the Figure 3 timeseries pipeline."""

import pytest

from repro.figures.fig3 import run_fig3

TRANSFER = 4_000_000


@pytest.fixture(scope="module")
def fig3():
    return run_fig3(transfer_bytes=TRANSFER, probe_interval_s=5e-4)


class TestFig3:
    def test_two_flows_per_panel(self, fig3):
        assert len(fig3.panel("fair")) == 2
        assert len(fig3.panel("serialized")) == 2

    def test_fair_flows_hold_half_rate(self, fig3):
        for _flow, series in fig3.panel("fair"):
            busy = [v for v in series.values if v > 1e8]
            assert busy
            mean_busy = sum(busy) / len(busy)
            assert mean_busy == pytest.approx(5e9, rel=0.15)

    def test_serialized_flows_burst_at_line_rate(self, fig3):
        for _flow, series in fig3.panel("serialized"):
            assert max(series.values) > 8.5e9

    def test_serialized_flows_do_not_overlap(self, fig3):
        """At most one serialized flow is active at a time (the handoff
        sample may see both because a bin straddles the boundary)."""
        series = [s for _f, s in fig3.panel("serialized")]
        times = series[0].times
        overlapping = 0
        for i, _t in enumerate(times):
            active = sum(
                1
                for s in series
                if i < len(s.values) and s.values[i] > 1e9
            )
            if active > 1:
                overlapping += 1
        assert overlapping <= 1

    def test_both_schedules_same_window_average(self, fig3):
        """Every flow averages ~C/2 over its panel's full duration."""
        fair = fig3.mean_throughputs_gbps("fair")
        serialized = fig3.mean_throughputs_gbps("serialized")
        for value in fair + serialized:
            assert value == pytest.approx(5.0, rel=0.2)

    def test_durations_comparable(self, fig3):
        assert fig3.duration_s("serialized") == pytest.approx(
            fig3.duration_s("fair"), rel=0.25
        )
