"""Fleet-level fabric figure: scheduling policies across datacenter CCAs.

The paper's single-bottleneck experiments (Figs. 1-4) show an unfair
full-speed-then-idle allocation beating fair sharing on energy. This
figure asks the fleet-scale version of the question: run the *same*
generated datacenter workload — 1k+ flows over a leaf-spine fabric —
once per scheduling policy (classically ``fair`` vs ``serialized``),
for each datacenter CCA, and compare total fleet energy (host CPUs +
switches) and flow completion times.

Scenario names follow the ``fabric_<cca>-<policy>`` convention so the
baseline snapshotter (:mod:`repro.obs.baseline`) derives each CCA's
``savings_vs_fair_percent`` automatically from the journal.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from repro.analysis.tables import format_table
from repro.core.savings import DatacenterCostModel
from repro.errors import ExperimentError
from repro.figures.arms import Arms, arms_by
from repro.harness.cache import ResultCache
from repro.harness.executor import ResultHook
from repro.harness.experiment import FabricScenario
from repro.harness.sweep import Sweep, SweepResults
from repro.obs.observer import Observer
from repro.sched import resolve_policy_list
from repro.units import MILLION, to_msec

#: the datacenter CCAs the ISSUE's fleet comparison covers
DEFAULT_CCAS = ("dctcp", "dcqcn", "hpcc", "swift")

#: both classic scheduling arms of every comparison
DEFAULT_POLICIES = ("fair", "serialized")


def fabric_scenario_name(cca: str, policy: str) -> str:
    """The ``fabric_<cca>-<policy>`` naming convention (baseline-aware)."""
    return f"fabric_{cca}-{policy}"


@dataclass
class FabricResult:
    """Every CCA's per-policy fleet arms, plus the sweep's shape."""

    arms: Dict[str, Arms]
    n_flows: int
    topology: str
    policies: Sequence[str] = DEFAULT_POLICIES

    def annualized_value_usd(self, cca: str, policy: str = "serialized") -> float:
        """$/year a policy's measured fleet saving is worth at DC scale.

        The cost model's domain is a fraction in [-1, 1]; a small run
        whose chained arm burns more than twice the fair energy (an
        idle-dominated toy fleet) saturates at -100% rather than erroring
        out of the whole figure.
        """
        if cca not in self.arms:
            raise ExperimentError(f"no fabric arms for CCA {cca!r}")
        fraction = self.arms[cca].savings_percent(policy) / 100.0
        return DatacenterCostModel().annual_savings_usd(max(-1.0, min(1.0, fraction)))

    def format_table(self) -> str:
        """The figure as text: per CCA x policy energy, savings, FCTs."""
        rows = [
            (
                cca,
                policy,
                arms[policy].mean_energy_j,
                arms.savings_percent(policy),
                to_msec(arms.fct_p50_s(policy)),
                to_msec(arms.fct_p99_s(policy)),
                arms.top_flow_share_percent(policy),
            )
            for cca, arms in self.arms.items()
            for policy in self.policies
            if policy in arms  # a partial figure from an aborted sweep
        ]
        body = format_table(
            [
                "cca",
                "policy",
                "energy (J)",
                "savings %",
                "p50 (ms)",
                "p99 (ms)",
                "top flow %",
            ],
            rows,
            float_fmt="{:.3f}",
        )
        parts = []
        for cca in self.arms:
            try:
                value = self.annualized_value_usd(cca)
            except ExperimentError:
                continue  # no serialized arm in this sweep
            parts.append(f"{cca}=${value / MILLION:.3f}M/yr")
        values = "  ".join(parts)
        header = (
            f"fleet energy by scheduling policy - {self.n_flows} flows on "
            f"{self.topology}"
        )
        if values:
            header += f"\nannualized value of serializing: {values}"
        return header + "\n" + body


def run_fabric_figure(
    ccas: Sequence[str] = DEFAULT_CCAS,
    n_flows: int = 1000,
    mix: str = "datacenter",
    target_load: float = 0.3,
    topology: str = "leaf-spine",
    leaves: int = 8,
    spines: int = 2,
    hosts_per_leaf: int = 8,
    fat_tree_k: int = 4,
    switch_power: str = "today",
    repetitions: int = 1,
    base_seed: int = 0,
    policies: Sequence[str] = DEFAULT_POLICIES,
    *,
    jobs: Optional[int] = None,
    cache_dir: Union[None, str, Path, ResultCache] = None,
    observer: Union[None, str, Path, Observer] = None,
    on_result: Optional[ResultHook] = None,
) -> FabricResult:
    """Run the per-policy fleet comparison for every CCA.

    The whole CCA x policy grid flattens into one work-item batch, so a
    ``jobs=N`` run parallelizes across all arms at once and stays
    bit-identical to a serial run (the executor layer's contract).
    ``fair`` must be among the policies: every comparison is relative
    to it.
    """
    if not ccas:
        raise ExperimentError("need at least one CCA")
    names = resolve_policy_list(policies, DEFAULT_POLICIES, "fabric figure")

    def factory(cca: str, policy: str) -> FabricScenario:
        return FabricScenario(
            name=fabric_scenario_name(cca, policy),
            cca=cca,
            policy=policy,
            n_flows=n_flows,
            mix=mix,
            target_load=target_load,
            topology=topology,
            leaves=leaves,
            spines=spines,
            hosts_per_leaf=hosts_per_leaf,
            fat_tree_k=fat_tree_k,
            switch_power=switch_power,
        )

    def to_result(results: SweepResults) -> FabricResult:
        return FabricResult(
            arms=arms_by(results, "cca"),
            n_flows=n_flows,
            topology=topology,
            policies=names,
        )

    return to_result(
        Sweep({"cca": list(ccas), "policy": names}).run(
            factory,
            repetitions=repetitions,
            base_seed=base_seed,
            jobs=jobs,
            cache=cache_dir,
            observer=observer,
            on_result=on_result,
            partial_figure=to_result,
        )
    )
