"""Tests for the §5 extension experiments: SRPT, incast, load balancing."""

import pytest

from repro.errors import ExperimentError
from repro.figures.incast import IncastPoint, IncastResult, run_incast_sweep
from repro.figures.load_balance import (
    balanced_utilizations,
    consolidated_utilizations,
    run_hardware_comparison,
)
from repro.figures.specs import FIGURES
from repro.figures.srpt import run_srpt_comparison
from repro.tcp.receiver import TcpReceiver

SMALL_BATCH = (8_000_000, 4_000_000, 2_000_000)


@pytest.fixture(scope="module")
def srpt():
    return run_srpt_comparison(batch=SMALL_BATCH)


class TestSrpt:
    def test_fair_is_most_expensive(self, srpt):
        fair = srpt.arms["fair"].mean_energy_j
        assert srpt.arms["srpt"].mean_energy_j < fair
        assert srpt.arms["serialized"].mean_energy_j < fair

    def test_srpt_improves_mean_fct(self, srpt):
        assert srpt.arms.fct_speedup("srpt") > 1.1

    def test_serialized_has_best_mean_fct(self, srpt):
        assert srpt.arms.mean_fct_s("serialized") < srpt.arms.mean_fct_s("srpt")

    def test_makespans_comparable(self, srpt):
        """All three schedules keep the bottleneck busy; makespan is
        roughly the aggregate serialization time."""
        makespans = [
            srpt.arms[name].runs[0].completion_time_s for name in srpt.arms
        ]
        assert max(makespans) < 1.5 * min(makespans)

    def test_table_renders(self, srpt):
        table = srpt.format_table()
        assert "srpt" in table and "serialized" in table


class TestIncast:
    def test_energy_grows_with_fan_in(self):
        result = run_incast_sweep(
            fan_ins=(1, 4), aggregate_bytes=8_000_000
        )
        point = {p.fan_in: p for p in result.points}
        assert point[4].energy_j > 2.5 * point[1].energy_j

    def test_makespan_stable_at_fixed_aggregate(self):
        result = run_incast_sweep(
            fan_ins=(1, 4), aggregate_bytes=8_000_000
        )
        point = {p.fan_in: p for p in result.points}
        assert point[4].makespan_s == pytest.approx(
            point[1].makespan_s, rel=0.3
        )

    def test_table_renders(self):
        result = run_incast_sweep(fan_ins=(1, 2), aggregate_bytes=4_000_000)
        assert "fan-in" in result.format_table()

    def test_an_uneven_fan_in_delivers_exactly_the_aggregate(self, monkeypatch):
        """Fan-in 3 of 20 MB: the first 20e6 % 3 senders carry one byte
        more, so the receivers take in every byte of the aggregate."""
        receivers = []
        init = TcpReceiver.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            receivers.append(self)

        monkeypatch.setattr(TcpReceiver, "__init__", recording_init)
        run_incast_sweep(fan_ins=(3,), aggregate_bytes=20_000_000)
        assert sorted(r.rcv_nxt for r in receivers) == [
            6_666_666, 6_666_667, 6_666_667,
        ]

    def test_a_fan_in_above_the_aggregate_is_refused(self):
        with pytest.raises(ExperimentError, match="flow size must be > 0"):
            run_incast_sweep(fan_ins=(4,), aggregate_bytes=3)

    def test_growth_is_labelled_from_the_first_fan_in(self):
        """``energy_growth`` divides by the first point, so the printed
        line names the first fan-in, not 1."""
        result = IncastResult(
            points=[
                IncastPoint(2, energy_j=1.0, makespan_s=0.1,
                            retransmissions=0, bottleneck_drops=0),
                IncastPoint(4, energy_j=1.5, makespan_s=0.1,
                            retransmissions=3, bottleneck_drops=1),
            ],
            aggregate_bytes=1_000_000,
        )
        incast = next(figure for figure in FIGURES if figure.name == "incast")
        text, _ = incast.render(result)
        assert "energy growth 2 -> 4 senders: x1.50" in text.split("\n\n")


class TestLoadBalancePlacements:
    def test_balanced_spreads_evenly(self):
        assert balanced_utilizations(0.25, 4) == [0.25] * 4

    def test_consolidated_fills_then_sleeps(self):
        assert consolidated_utilizations(0.25, 4) == [1.0, 0.0, 0.0, 0.0]

    def test_consolidated_partial_fill(self):
        utils = consolidated_utilizations(0.375, 4)
        assert utils == [1.0, 0.5, 0.0, 0.0]

    def test_total_traffic_preserved(self):
        for load in (0.1, 0.33, 0.8):
            assert sum(consolidated_utilizations(load, 8)) == pytest.approx(
                sum(balanced_utilizations(load, 8))
            )


class TestHardwareComparison:
    def test_todays_hardware_indifferent_to_balance(self):
        today, _ = run_hardware_comparison()
        assert today.max_savings() == pytest.approx(0.0, abs=1e-12)

    def test_rate_adaptive_hardware_rewards_consolidation(self):
        _, adaptive = run_hardware_comparison()
        assert adaptive.max_savings() > 0.03

    def test_savings_largest_at_low_load(self):
        _, adaptive = run_hardware_comparison(loads=(0.125, 0.75))
        low, high = adaptive.points
        assert low.savings_fraction > high.savings_fraction
