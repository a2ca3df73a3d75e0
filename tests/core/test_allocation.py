"""Unit tests for allocation plans."""

import pytest

from repro.core.allocation import (
    fair_split,
    fig1_allocations,
    full_speed_then_idle,
    limited_flow_split,
)
from repro.errors import ExperimentError
from repro.units import gbps

SIZE = 1_000_000
CAP = gbps(10.0)


class TestFairSplit:
    def test_equal_shares(self):
        plan = fair_split(SIZE, CAP, n_flows=2)
        assert all(f.target_rate_bps == pytest.approx(CAP / 2) for f in plan.flows)
        assert plan.flow0_fraction == pytest.approx(0.5)

    def test_n_flows(self):
        plan = fair_split(SIZE, CAP, n_flows=4)
        assert len(plan.flows) == 4
        assert plan.flows[0].target_rate_bps == pytest.approx(CAP / 4)


class TestLimitedSplit:
    def test_majority_fraction_caps_minority(self):
        plan = limited_flow_split(SIZE, CAP, fraction=0.8)
        # flow 0 holds 80%: it is uncapped; flow 1 capped at 20%
        assert plan.flows[0].target_rate_bps is None
        assert plan.flows[1].target_rate_bps == pytest.approx(0.2 * CAP)
        assert plan.flows[1].uncap_after == 0

    def test_minority_fraction_mirrors(self):
        plan = limited_flow_split(SIZE, CAP, fraction=0.2)
        # flow 0 holds 20%: capped; flow 1 uncapped
        assert plan.flows[0].target_rate_bps == pytest.approx(0.2 * CAP)
        assert plan.flows[0].uncap_after == 1
        assert plan.flows[1].target_rate_bps is None

    def test_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ExperimentError):
                limited_flow_split(SIZE, CAP, fraction=bad)

    def test_symmetry(self):
        lo = limited_flow_split(SIZE, CAP, fraction=0.3)
        hi = limited_flow_split(SIZE, CAP, fraction=0.7)
        lo_rates = sorted(
            (f.target_rate_bps or 0.0) for f in lo.flows
        )
        hi_rates = sorted(
            (f.target_rate_bps or 0.0) for f in hi.flows
        )
        assert lo_rates == pytest.approx(hi_rates)


class TestFullSpeedThenIdle:
    def test_staggered_starts(self):
        plan = full_speed_then_idle(SIZE, CAP, n_flows=3)
        starts = [f.start_time_s for f in plan.flows]
        assert starts[0] == 0.0
        assert starts[1] == pytest.approx(SIZE * 8 / CAP)
        assert starts[2] == pytest.approx(2 * SIZE * 8 / CAP)

    def test_no_rate_caps(self):
        plan = full_speed_then_idle(SIZE, CAP)
        assert all(f.target_rate_bps is None for f in plan.flows)


class TestFig1Sweep:
    def test_sweep_composition(self):
        plans = fig1_allocations(SIZE, CAP)
        names = [p.name for p in plans]
        assert "fair" in names
        assert names[-1] == "full-speed-then-idle"
        assert len(plans) == 10  # 9 fractions + serialized extreme

    def test_fractions_recorded(self):
        plans = fig1_allocations(SIZE, CAP, fractions=(0.25, 0.5, 0.75))
        fractions = [p.flow0_fraction for p in plans[:-1]]
        assert fractions == [0.25, 0.5, 0.75]
