"""The policy seam's executor contract.

Two pins: (1) every registered policy is bit-identical between
``jobs=1`` and ``jobs=4`` — measurements *and* telemetry bytes — on
both the single-link and fabric runners; (2) the content-addressed
cache treats the policy as part of the spec (a policy-only change is a
miss, never a stale hit).
"""

from repro.harness.cache import compute_key
from repro.harness.executor import WorkItem, run_work_items
from repro.harness.experiment import FabricScenario, FlowSpec, Scenario
from repro.harness.runner import run_once
from repro.sched import policy_names

SIZES = (2_000_000, 1_000_000, 500_000)


def link_scenario(policy, name=None):
    flows = [
        FlowSpec(size, cca="cubic", deadline_s=0.05 * (i + 1))
        for i, size in enumerate(SIZES)
    ]
    return Scenario(
        name=name or f"pol-link-{policy}",
        flows=flows,
        packages=len(flows),
        policy=policy,
    )


def fabric_scenario(policy):
    return FabricScenario(
        name=f"pol-fabric-{policy}",
        cca="dctcp",
        policy=policy,
        n_flows=60,
        mix="rpc",
        leaves=2,
        spines=1,
        hosts_per_leaf=4,
    )


def all_policy_items():
    return [
        WorkItem(scenario=build(policy), seed=0)
        for build in (link_scenario, fabric_scenario)
        for policy in policy_names()
    ]


class TestPerPolicyDeterminism:
    def test_every_policy_bit_identical_jobs1_vs_jobs4(self):
        items = all_policy_items()
        serial = run_work_items(items, jobs=1)
        pooled = run_work_items(items, jobs=4)
        assert pooled == serial

    def test_every_policy_telemetry_byte_identical(self, tmp_path):
        # Closing the observer (the CLI's `with` idiom) canonicalizes
        # record order, so the comparison is jobs-independent.
        from repro.obs.observer import TracingObserver

        items = all_policy_items()
        with TracingObserver(tmp_path / "serial") as obs:
            run_work_items(items, jobs=1, observer=obs)
        with TracingObserver(tmp_path / "pool") as obs:
            run_work_items(items, jobs=4, observer=obs)
        assert (
            (tmp_path / "serial" / "telemetry.jsonl").read_bytes()
            == (tmp_path / "pool" / "telemetry.jsonl").read_bytes()
        )

    def test_policies_actually_differ(self):
        fair = run_once(link_scenario("fair"), seed=0)
        serialized = run_once(link_scenario("serialized"), seed=0)
        assert serialized.energy_j < fair.energy_j


class TestPolicyInCacheKey:
    def test_policy_only_change_moves_the_key(self):
        base = compute_key(link_scenario("fair", name="k"), 0)
        for policy in ("serialized", "srpt", "deadline", "load-adaptive"):
            assert compute_key(link_scenario(policy, name="k"), 0) != base

    def test_fabric_policy_only_change_moves_the_key(self):
        keys = {
            compute_key(fabric_scenario(policy), 0)
            for policy in policy_names()
        }
        assert len(keys) == len(policy_names())
