"""The fluid processor-sharing evaluator: shares, chains, deadlocks,
and the energy price of a plan."""

import pytest

from repro.energy.power_model import PowerModel
from repro.errors import ExperimentError
from repro.sched import (
    FlowRequest,
    FlowSchedule,
    SchedulePlan,
    SchedulingContext,
    fluid_completions,
    fluid_energy_j,
    get_policy,
)
from repro.units import gbps, to_gbps

#: 8 bps: one byte of payload takes one second at line rate
CAPACITY = 8.0
CTX_CAPACITY = CAPACITY


def reqs(sizes, arrivals=None):
    arrivals = arrivals or [0.0] * len(sizes)
    return [
        FlowRequest(index=i, size_bytes=s, arrival_s=a)
        for i, (s, a) in enumerate(zip(sizes, arrivals))
    ]


def plan_with(after):
    return SchedulePlan(
        policy="test",
        flows=tuple(
            FlowSchedule(index=i, after_index=a) for i, a in enumerate(after)
        ),
    )


class TestFluidCompletions:
    def test_single_flow_finishes_at_line_rate(self):
        done = fluid_completions(reqs([5]), plan_with([None]), CAPACITY)
        assert done == [pytest.approx(5.0)]

    def test_two_equal_flows_share_and_finish_together(self):
        done = fluid_completions(reqs([2, 2]), plan_with([None, None]), CAPACITY)
        assert done == [pytest.approx(4.0), pytest.approx(4.0)]

    def test_unequal_flows_release_capacity_as_they_finish(self):
        # A=2 B, B=1 B sharing: B done at t=2 (half rate), A's last byte
        # then runs alone and completes at t=3.
        done = fluid_completions(reqs([2, 1]), plan_with([None, None]), CAPACITY)
        assert done == [pytest.approx(3.0), pytest.approx(2.0)]

    def test_serialized_chain_runs_back_to_back(self):
        done = fluid_completions(reqs([2, 3]), plan_with([None, 0]), CAPACITY)
        assert done == [pytest.approx(2.0), pytest.approx(5.0)]

    def test_srpt_chain_starts_at_predecessors_completion(self):
        # Two equal 1 MB flows: the second starts when the first ends,
        # so it finishes at twice the first's line-rate completion.
        requests = reqs([1_000_000, 1_000_000])
        plan = get_policy("srpt").plan(
            requests, SchedulingContext(capacity_bps=gbps(10.0))
        )
        first, second = sorted(fluid_completions(requests, plan, gbps(10.0)))
        assert first == pytest.approx(1_000_000 * 8 / gbps(10.0))
        assert second == pytest.approx(2 * first)

    def test_deferred_flow_waits_for_its_own_arrival(self):
        # predecessor completes at t=2 but the successor only arrives
        # at t=5: the chained start is max(completion, arrival).
        done = fluid_completions(
            reqs([2, 1], arrivals=[0.0, 5.0]), plan_with([None, 0]), CAPACITY
        )
        assert done == [pytest.approx(2.0), pytest.approx(6.0)]

    def test_late_arrival_splits_the_link_midway(self):
        # A=4 B alone for 2 s (2 B left), then shares with B=1 B: B
        # finishes at t=4, A's last byte completes at t=5.
        done = fluid_completions(
            reqs([4, 1], arrivals=[0.0, 2.0]), plan_with([None, None]), CAPACITY
        )
        assert done == [pytest.approx(5.0), pytest.approx(4.0)]

    def test_empty_batch(self):
        assert fluid_completions([], plan_with([]), CAPACITY) == []

    def test_plan_size_mismatch_rejected(self):
        with pytest.raises(ExperimentError, match="plan covers"):
            fluid_completions(reqs([1, 1]), plan_with([None]), CAPACITY)

    def test_deferral_cycle_deadlocks_loudly(self):
        with pytest.raises(ExperimentError, match="deadlock"):
            fluid_completions(reqs([1, 1]), plan_with([1, 0]), CAPACITY)

    def test_matches_policy_plans(self):
        # The evaluator and the serialized policy agree on chain shape.
        requests = reqs([2, 1, 1])
        plan = get_policy("serialized").plan(
            requests, SchedulingContext(capacity_bps=CAPACITY)
        )
        done = fluid_completions(requests, plan, CAPACITY)
        assert done == [pytest.approx(2.0), pytest.approx(3.0), pytest.approx(4.0)]


#: the calibrated power curve at the paper's 10 Gb/s line rate
LINE_RATE_BPS = gbps(10.0)
POWER_W = PowerModel().smooth_sending_power_w


def price(policy, sizes):
    """``policy``'s joules for a batch arriving at t=0 on one 10 Gb/s link."""
    requests = reqs(sizes)
    plan = get_policy(policy).plan(
        requests, SchedulingContext(capacity_bps=LINE_RATE_BPS)
    )
    return fluid_energy_j(requests, plan, LINE_RATE_BPS, POWER_W)


def saving(sizes):
    fair = price("fair", sizes)
    return (fair - price("srpt", sizes)) / fair


class TestFluidEnergy:
    @pytest.mark.parametrize(
        "sizes, fair_j, serialized_j",
        [
            ((10_000_000, 20_000_000), 1.5538399999999999, 1.3754399999999998),
            (
                (1_000_000_000, 500_000_000, 2_000_000_000),
                255.17880181937585,
                220.64,
            ),
            (
                (3_000_000, 1_000_000, 2_000_000, 7_000_000),
                1.2112157808892747,
                1.043016,
            ),
            ((10_000_000,) * 4, 4.200501772505233, 3.2092799999999997),
        ],
        ids=["10M+20M", "1G+500M+2G", "3M+1M+2M+7M", "4x10M"],
    )
    def test_golden_joules(self, sizes, fair_j, serialized_j):
        # Pinned from the §4.1 arithmetic as first written for these two
        # plan shapes: a processor-sharing loop for fair, line-rate
        # shortest-first back-to-back runs for serialized.
        assert price("fair", sizes) == pytest.approx(fair_j, rel=1e-12)
        assert price("srpt", sizes) == pytest.approx(serialized_j, rel=1e-12)

    def test_hand_priced_idle_gap(self):
        # One byte per flow at 8 bps: flow 0 runs alone over [0, 1),
        # both hosts idle over [1, 5), flow 1 runs alone over [5, 6).
        def power_w(throughput_gbps):
            return 1.0 + throughput_gbps / to_gbps(CAPACITY)

        requests = reqs([1, 1], arrivals=[0.0, 5.0])
        energy = fluid_energy_j(requests, plan_with([None, 0]), CAPACITY, power_w)
        assert energy == pytest.approx((2 + 1) * 1 + (1 + 1) * 4 + (1 + 2) * 1)

    def test_linear_curve_prices_both_plans_alike(self):
        def power_w(throughput_gbps):
            return 30.0 + 0.5 * throughput_gbps

        requests = reqs([3, 1, 2])
        fair = fluid_energy_j(requests, plan_with([None] * 3), CAPACITY, power_w)
        chain = fluid_energy_j(requests, plan_with([None, 0, 1]), CAPACITY, power_w)
        assert fair == pytest.approx(chain, rel=1e-12)

    def test_empty_batch_costs_nothing(self):
        assert fluid_energy_j([], plan_with([]), CAPACITY, POWER_W) == 0.0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ExperimentError):
            fluid_energy_j(reqs([1]), plan_with([None]), 0, POWER_W)

    def test_serialized_cheaper_for_equal_flows(self):
        assert price("srpt", (10_000_000,) * 2) < price("fair", (10_000_000,) * 2)

    def test_two_equal_flows_save_the_papers_16_percent(self):
        assert saving((10_000_000, 10_000_000)) == pytest.approx(0.163, abs=0.01)

    def test_three_equal_flows_save_under_half(self):
        assert 0 < saving((10_000_000,) * 3) < 0.5

    def test_more_flows_save_more(self):
        assert saving((10_000_000,) * 4) > saving((10_000_000,) * 2)

    def test_single_flow_saves_nothing(self):
        assert saving((10_000_000,)) == pytest.approx(0.0, abs=1e-9)

    def test_unequal_sizes_still_save(self):
        assert saving((5_000_000, 20_000_000)) > 0

    @pytest.mark.parametrize(
        "policy, order",
        [("srpt", [1, 2, 0]), ("serialized", [0, 1, 2])],
        ids=["srpt", "serialized"],
    )
    def test_chains_finish_in_plan_order(self, policy, order):
        # srpt chains shortest first; serialized keeps batch order.
        requests = reqs([3_000_000, 1_000_000, 2_000_000])
        plan = get_policy(policy).plan(
            requests, SchedulingContext(capacity_bps=LINE_RATE_BPS)
        )
        done = fluid_completions(requests, plan, LINE_RATE_BPS)
        assert sorted(range(3), key=done.__getitem__) == order
