"""Unit tests for scenario descriptions and validation."""

import json
import warnings

import pytest

from repro.core.allocation import fig1_allocations, full_speed_then_idle
from repro.errors import ExperimentError
from repro.harness.experiment import (
    FabricScenario,
    FlowSpec,
    Scenario,
    scenario_from_plan,
)
from repro.units import gbps


class TestFlowSpec:
    def test_defaults(self):
        flow = FlowSpec(1000)
        assert flow.cca == "cubic"
        assert flow.target_rate_bps is None

    def test_size_validation(self):
        with pytest.raises(ExperimentError):
            FlowSpec(0)


class TestKeywordOnlyDeprecation:
    """Fields beyond the first are keyword-only: the deprecation ended."""

    def test_positional_flowspec_raises(self):
        with pytest.raises(TypeError, match="positional"):
            FlowSpec(1000, "bbr")

    def test_positional_scenario_raises(self):
        with pytest.raises(TypeError, match="positional"):
            Scenario("x", [FlowSpec(1000)])

    def test_keyword_construction_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            FlowSpec(1000, cca="bbr", uncap_after=None)
            Scenario("x", flows=[FlowSpec(1000)], mtu_bytes=1500)


class TestCacheKey:
    def test_equal_scenarios_serialize_identically(self):
        a = Scenario("k", flows=[FlowSpec(1000)], mtu_bytes=1500)
        b = Scenario("k", flows=[FlowSpec(1000)], mtu_bytes=1500)
        assert a.cache_key() == b.cache_key()

    def test_every_field_is_present(self):
        key = json.loads(Scenario("k", flows=[FlowSpec(1000)]).cache_key())
        assert set(key) == set(Scenario.__dataclass_fields__)
        assert set(key["flows"][0]) == set(FlowSpec.__dataclass_fields__)
        assert key["flows"][0]["total_bytes"] == 1000

    def test_fields_added_after_schema_5_are_keyed_when_set(self):
        flows = [FlowSpec(1000), FlowSpec(1000)]
        base = Scenario("k", flows=flows)
        bonded = Scenario("k", flows=flows, sender_bonded_links=1)
        hosted = Scenario("k", flows=[FlowSpec(1000), FlowSpec(1000, sender_host=1)])
        assert json.loads(bonded.cache_key())["sender_bonded_links"] == 1
        assert json.loads(hosted.cache_key())["flows"][1]["sender_host"] == 1
        assert len({base.cache_key(), bonded.cache_key(), hosted.cache_key()}) == 3

    def test_flow_changes_change_the_key(self):
        base = Scenario("k", flows=[FlowSpec(1000)])
        other = Scenario("k", flows=[FlowSpec(1000, cca="bbr")])
        assert base.cache_key() != other.cache_key()

    def test_key_is_json_canonical(self):
        key = Scenario("k", flows=[FlowSpec(1000)]).cache_key()
        parsed = json.loads(key)
        assert key == json.dumps(
            parsed, sort_keys=True, separators=(",", ":")
        )


class TestScenarioValidation:
    def test_needs_flows(self):
        with pytest.raises(ExperimentError):
            Scenario("empty", flows=[])

    def test_load_bounds(self):
        with pytest.raises(ExperimentError):
            Scenario("x", flows=[FlowSpec(1000)], background_load=1.5)

    def test_baseline_cannot_share_bottleneck(self):
        """Paper footnote 2: the no-CC module would cause collapse."""
        with pytest.raises(ExperimentError, match="footnote 2"):
            Scenario(
                "bad",
                flows=[FlowSpec(1000, cca="baseline"), FlowSpec(1000, cca="cubic")],
            )

    def test_baseline_alone_allowed(self):
        Scenario("ok", flows=[FlowSpec(1000, cca="baseline")])

    def test_baseline_serialized_allowed(self):
        """Chained flows never share the link, so baseline is fine."""
        Scenario(
            "ok",
            flows=[FlowSpec(1000, cca="baseline"), FlowSpec(1000, cca="cubic")],
            policy="serialized",
        )

    def test_baseline_under_a_sharing_policy_rejected(self):
        """The check asks the policy: one that admits both flows at once
        puts the baseline on a shared FIFO bottleneck."""
        flows = [FlowSpec(1000, cca="baseline"), FlowSpec(1000, cca="cubic")]
        for policy in ("fair", "load-adaptive"):
            with pytest.raises(ExperimentError, match="footnote 2"):
                Scenario("bad", flows=flows, policy=policy, offered_load=0.9)

    def test_baseline_behind_a_priority_bottleneck_allowed(self):
        flows = [FlowSpec(1000, cca="baseline"), FlowSpec(1000, cca="cubic")]
        Scenario("ok", flows=flows, bottleneck_discipline="priority")
        Scenario("ok", flows=flows, policy="srpt")

    def test_policy_spelling_is_canonicalized(self):
        scenario = Scenario("x", flows=[FlowSpec(1000)], policy=" Serialized ")
        assert scenario.policy == "serialized"
        assert Scenario("x", flows=[FlowSpec(1000)]).policy == "fair"

    def test_with_name(self):
        s = Scenario("a", flows=[FlowSpec(1000)])
        assert s.with_name("b").name == "b"
        assert s.name == "a"

    @pytest.mark.parametrize(
        "uncap_after", [2, 3, -1, 0], ids=["past-end", "far", "negative", "self"]
    )
    def test_uncap_after_must_name_another_flow(self, uncap_after):
        flows = [
            FlowSpec(1000, target_rate_bps=gbps(1.0), uncap_after=uncap_after),
            FlowSpec(1000),
        ]
        with pytest.raises(ExperimentError, match="lifts its cap"):
            Scenario("bad", flows=flows)

    def test_unknown_bottleneck_discipline_rejected(self):
        with pytest.raises(ExperimentError, match="'lifo'.*fifo, priority"):
            Scenario("bad", flows=[FlowSpec(1000)], bottleneck_discipline="lifo")

    @pytest.mark.parametrize(
        "kind, overrides",
        [
            ("link", dict(sender_bonded_links=0)),
            ("link", dict(mtu_bytes=500)),
            ("link", dict(buffer_bytes=0)),
            # below the default 100 KiB ECN marking threshold
            ("link", dict(buffer_bytes=30_000)),
            ("link", dict(ecn_threshold_bytes=0)),
            ("fabric", dict(leaves=0)),
            ("fabric", dict(spines=0)),
            ("fabric", dict(hosts_per_leaf=0)),
        ],
    )
    def test_what_the_builder_rejects_is_rejected_at_construction(
        self, kind, overrides
    ):
        with pytest.raises(ExperimentError, match="^scenario 'unbuildable': "):
            if kind == "link":
                Scenario("unbuildable", flows=[FlowSpec(1000)], **overrides)
            else:
                FabricScenario("unbuildable", **overrides)

    def test_a_priority_hint_lifts_the_marking_threshold_check(self):
        # srpt's plan puts a priority qdisc at the bottleneck, which
        # never marks: a buffer below the ECN threshold builds
        Scenario("srpt", flows=[FlowSpec(1000)], buffer_bytes=30_000, policy="srpt")


class TestScenarioFromPlan:
    def test_fsti_plan_chains(self):
        plan = full_speed_then_idle(1000, gbps(10.0))
        scenario = scenario_from_plan("x", plan)
        assert scenario.policy == "serialized"
        assert [f.start_time_s for f in scenario.flows] == [0.0, 0.0]
        assert [d.after_index for d in scenario.plan().flows] == [None, 0]

    def test_every_other_plan_shares(self):
        for plan in fig1_allocations(1000, gbps(10.0))[:-1]:
            scenario = scenario_from_plan("x", plan)
            assert scenario.policy == "fair"
            assert not any(d.deferred for d in scenario.plan().flows)

    def test_limited_plan_keeps_caps_and_uncap(self):
        plans = fig1_allocations(1000, gbps(10.0), fractions=(0.8,))
        scenario = scenario_from_plan("x", plans[0])
        capped = scenario.flows[1]
        assert capped.target_rate_bps == pytest.approx(0.2 * gbps(10))
        assert capped.uncap_after == 0

    def test_kwargs_forwarded(self):
        plan = full_speed_then_idle(1000, gbps(10.0))
        scenario = scenario_from_plan("x", plan, mtu_bytes=1500)
        assert scenario.mtu_bytes == 1500
