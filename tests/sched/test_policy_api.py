"""Unit tests for the repro.sched subsystem: datatypes, registry, policies."""

import pytest

from repro.errors import ExperimentError
from repro.sched import (
    FlowRequest,
    FlowSchedule,
    SchedulePlan,
    SchedulingContext,
    SchedulingPolicy,
    get_policy,
    policy_names,
    register_policy,
    resolve_policy_name,
)

#: capacity 8 bps makes a flow's line-rate duration equal its byte count
CTX = SchedulingContext(capacity_bps=8.0)


def reqs(sizes, srcs=None, arrivals=None, deadlines=None):
    srcs = srcs or ["h0"] * len(sizes)
    arrivals = arrivals or [0.0] * len(sizes)
    deadlines = deadlines or [None] * len(sizes)
    return [
        FlowRequest(
            index=i, size_bytes=s, arrival_s=a, src=src, deadline_s=d
        )
        for i, (s, src, a, d) in enumerate(
            zip(sizes, srcs, arrivals, deadlines)
        )
    ]


def after_indices(plan):
    return [decision.after_index for decision in plan.flows]


class TestDatatypes:
    def test_flow_request_rejects_nonpositive_size(self):
        with pytest.raises(ExperimentError, match="size"):
            FlowRequest(index=0, size_bytes=0)

    def test_flow_request_rejects_negative_arrival(self):
        with pytest.raises(ExperimentError, match="arrival"):
            FlowRequest(index=0, size_bytes=1, arrival_s=-1.0)

    def test_line_rate_duration(self):
        assert FlowRequest(index=0, size_bytes=5).line_rate_duration_s(
            8.0
        ) == pytest.approx(5.0)

    def test_plan_rejects_out_of_order_flows(self):
        with pytest.raises(ExperimentError, match="batch order"):
            SchedulePlan(policy="x", flows=(FlowSchedule(index=1),))

    def test_plan_rejects_self_deferral(self):
        with pytest.raises(ExperimentError, match="itself"):
            SchedulePlan(
                policy="x", flows=(FlowSchedule(index=0, after_index=0),)
            )

    def test_plan_rejects_dangling_deferral(self):
        with pytest.raises(ExperimentError, match="nonexistent"):
            SchedulePlan(
                policy="x", flows=(FlowSchedule(index=0, after_index=7),)
            )

    def test_context_rejects_nonpositive_capacity(self):
        with pytest.raises(ExperimentError, match="capacity"):
            SchedulingContext(capacity_bps=0.0)


class TestRegistry:
    def test_default_policies_registered(self):
        names = policy_names()
        for expected in (
            "deadline", "fair", "load-adaptive", "serialized", "srpt",
        ):
            assert expected in names
        assert list(names) == sorted(names)

    def test_resolve_is_case_and_space_insensitive(self):
        assert resolve_policy_name("  Fair ") == "fair"

    def test_unknown_name_lists_known_policies(self):
        with pytest.raises(ExperimentError, match="fair"):
            resolve_policy_name("round-robin")

    @pytest.mark.parametrize("spelling", ["fsti", "pfabric"])
    def test_pre_registry_spellings_are_unknown(self, spelling):
        with pytest.raises(ExperimentError, match="unknown scheduling policy"):
            resolve_policy_name(spelling)

    def test_get_policy_returns_named_instance(self):
        assert get_policy("serialized").name == "serialized"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ExperimentError, match="registered"):
            register_policy(get_policy("fair"))

    def test_custom_policy_registers_and_resolves(self, monkeypatch):
        from repro.sched import registry

        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))

        class Reverse(SchedulingPolicy):
            name = "reverse"
            description = "chain the batch back to front"

            def plan(self, requests, ctx):
                after = [i + 1 if i + 1 < len(requests) else None
                         for i in range(len(requests))]
                return self._plan(requests, after)

        register_policy(Reverse())
        assert registry.resolve_policy_name("reverse") == "reverse"
        plan = registry.get_policy("reverse").plan(reqs([1, 1]), CTX)
        assert after_indices(plan) == [1, None]


class TestFairAndSerialized:
    def test_fair_admits_everything(self):
        plan = get_policy("fair").plan(reqs([3, 2, 1]), CTX)
        assert after_indices(plan) == [None, None, None]
        assert plan.bottleneck_discipline == "fifo"
        assert plan.sender_cca is None

    def test_serialized_chains_one_source_in_batch_order(self):
        plan = get_policy("serialized").plan(reqs([3, 2, 1]), CTX)
        assert after_indices(plan) == [None, 0, 1]

    def test_serialized_chains_per_source(self):
        plan = get_policy("serialized").plan(
            reqs([1, 1, 1, 1], srcs=["h0", "h1", "h0", "h1"]), CTX
        )
        assert after_indices(plan) == [None, None, 0, 1]


class TestSrpt:
    def test_priority_testbed_gets_network_hints(self):
        ctx = SchedulingContext(capacity_bps=8.0, supports_priority=True)
        plan = get_policy("srpt").plan(reqs([3, 1, 2]), ctx)
        assert after_indices(plan) == [None, None, None]
        assert plan.bottleneck_discipline == "priority"
        assert plan.sender_cca == "baseline"
        assert plan.sender_cca_kwargs["window_segments"] == 14

    def test_fabric_testbed_gets_sjf_chains(self):
        plan = get_policy("srpt").plan(reqs([3, 1, 2]), CTX)
        # shortest-first order is flow 1 -> 2 -> 0
        assert after_indices(plan) == [2, None, 1]
        assert plan.bottleneck_discipline == "fifo"

    def test_sjf_chains_stay_within_a_source(self):
        plan = get_policy("srpt").plan(
            reqs([4, 3, 2, 1], srcs=["h0", "h1", "h0", "h1"]), CTX
        )
        assert after_indices(plan) == [2, 3, None, None]


class TestLoadAdaptive:
    def test_closed_batch_serializes(self):
        plan = get_policy("load-adaptive").plan(reqs([1, 1]), CTX)
        assert after_indices(plan) == [None, 0]

    def test_light_load_serializes(self):
        ctx = SchedulingContext(capacity_bps=8.0, offered_load=0.2)
        plan = get_policy("load-adaptive").plan(reqs([1, 1]), ctx)
        assert after_indices(plan) == [None, 0]

    def test_heavy_load_shares(self):
        ctx = SchedulingContext(capacity_bps=8.0, offered_load=0.4)
        plan = get_policy("load-adaptive").plan(reqs([1, 1]), ctx)
        assert after_indices(plan) == [None, None]

    def test_threshold_validated(self):
        from repro.sched import LoadAdaptivePolicy

        with pytest.raises(ExperimentError, match="threshold"):
            LoadAdaptivePolicy(threshold=1.5)


class TestDeadline:
    def test_unconstrained_batch_fully_serializes(self):
        plan = get_policy("deadline").plan(reqs([2, 1, 1]), CTX)
        assert after_indices(plan) == [None, 0, 1]

    def test_deferral_that_would_break_a_fair_met_deadline_is_rejected(self):
        # Fair sharing: A (2 B) done at t=3, B (1 B) done at t=2. B's
        # deadline of 2 s is fair-met; serializing B behind A would
        # finish it at 3 s — the policy must keep B admitted.
        requests = reqs([2, 1], deadlines=[None, 2.0])
        plan = get_policy("deadline").plan(requests, CTX)
        assert after_indices(plan) == [None, None]

    def test_deferral_within_slack_is_accepted(self):
        requests = reqs([2, 1], deadlines=[None, 3.5])
        plan = get_policy("deadline").plan(requests, CTX)
        assert after_indices(plan) == [None, 0]

    def test_large_batches_use_the_heuristic(self):
        from repro.sched.policies import DEADLINE_EXACT_MAX_FLOWS

        n = DEADLINE_EXACT_MAX_FLOWS + 1
        plan = get_policy("deadline").plan(reqs([1] * n), CTX)
        # no deadlines: the heuristic serializes the whole chain too
        assert after_indices(plan) == [None] + list(range(n - 1))
