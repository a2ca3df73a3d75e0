"""Tests for the FCT-vs-energy Pareto evaluator."""

import pytest

from repro.errors import ExperimentError
from repro.figures.pareto import WORKLOADS, pareto_scenario_name, run_pareto
from repro.sched import policy_names

LINK_BATCH = (2_000_000, 1_000_000, 500_000)


@pytest.fixture(scope="module")
def pareto():
    return run_pareto(
        link_batch=LINK_BATCH,
        n_flows=40,
        mix="rpc",
        leaves=2,
        spines=1,
        hosts_per_leaf=4,
    )


class TestParetoSweep:
    def test_covers_every_policy_on_both_workloads(self, pareto):
        assert tuple(pareto.policies) == policy_names()
        for workload in WORKLOADS:
            assert set(pareto.workload_arms(workload)) == set(policy_names())

    def test_scenario_naming_convention(self):
        assert pareto_scenario_name("link", "srpt") == "pareto_link-srpt"

    def test_points_carry_energy_and_fct_percentiles(self, pareto):
        for arms in pareto.arms.values():
            for name in arms:
                assert arms[name].mean_energy_j > 0
                assert 0 < arms.fct_p50_s(name) <= arms.fct_p99_s(name)

    def test_fair_savings_are_zero_by_definition(self, pareto):
        for workload in WORKLOADS:
            assert pareto.workload_arms(workload).savings_percent("fair") == 0.0

    def test_link_serialization_saves_energy(self, pareto):
        assert pareto.workload_arms("link").savings_percent("serialized") > 0

    def test_unknown_workload_rejected(self, pareto):
        with pytest.raises(ExperimentError, match="unknown workload"):
            pareto.workload_arms("wan")


class TestFrontier:
    def test_frontier_is_nonempty_and_sorted_by_fct(self, pareto):
        for workload in WORKLOADS:
            arms = pareto.workload_arms(workload)
            front = pareto.frontier(workload)
            assert front
            fcts = [arms.fct_p50_s(name) for name in front]
            assert fcts == sorted(fcts)

    def test_frontier_energies_strictly_improve(self, pareto):
        for workload in WORKLOADS:
            arms = pareto.workload_arms(workload)
            energies = [arms[name].mean_energy_j for name in pareto.frontier(workload)]
            assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_frontier_points_are_undominated(self, pareto):
        for workload in WORKLOADS:
            arms = pareto.workload_arms(workload)

            def point(name):
                return arms.fct_p50_s(name), arms[name].mean_energy_j

            for front_name in pareto.frontier(workload):
                fct, energy = point(front_name)
                dominators = [
                    name
                    for name in arms
                    if point(name)[0] <= fct
                    and point(name)[1] <= energy
                    and (point(name)[0] < fct or point(name)[1] < energy)
                ]
                assert not dominators

    def test_tail_frontier_uses_p99(self, pareto):
        for workload in WORKLOADS:
            arms = pareto.workload_arms(workload)
            front = pareto.frontier(workload, tail=True)
            fcts = [arms.fct_p99_s(name) for name in front]
            assert fcts == sorted(fcts)

    def test_table_marks_the_frontier(self, pareto):
        table = pareto.format_table()
        assert "link workload" in table
        assert "fabric workload" in table
        assert "*" in table


class TestValidation:
    def test_fair_is_required(self):
        with pytest.raises(ExperimentError, match="fair"):
            run_pareto(policies=["serialized", "srpt"], link_batch=LINK_BATCH)
