"""The FCT-vs-energy Pareto frontier across scheduling policies.

The paper optimizes joules; pFabric-style SRPT optimizes FCT; FairQ
optimizes fairness-and-FCT. This figure puts every registered
:mod:`repro.sched` policy on one chart and asks which trade-offs are
*efficient*: for each policy it measures total energy and FCT
percentiles on two workloads —

* **link** — a closed shortest-first batch multiplexed through one
  sender over the classic dumbbell (the paper's single-bottleneck
  setting; the ``fair``/``serialized`` points land exactly where the
  legacy fig3/srpt paths put them);
* **fabric** — an open Poisson workload over a leaf-spine fleet (the
  docs/datacenter.md setting where the energy sign flips).

The full workload x policy grid flattens into one work-item batch, so
``jobs=N`` parallelizes every arm and stays bit-identical to a serial
run; scenario names follow ``pareto_<workload>-<policy>`` so baseline
snapshots derive ``savings_vs_fair_percent`` per workload
automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.tables import format_table
from repro.errors import ExperimentError
from repro.figures.arms import Arms, arms_by
from repro.harness.cache import ResultCache
from repro.harness.executor import ResultHook
from repro.harness.experiment import (
    AnyScenario,
    FabricScenario,
    FlowSpec,
    Scenario,
)
from repro.harness.sweep import Sweep, SweepResults
from repro.net.topology import TestbedConfig
from repro.obs.observer import Observer
from repro.sched import policy_names, resolve_policy_list
from repro.units import BITS_PER_BYTE, to_msec

#: the two workloads every policy is evaluated on
WORKLOADS = ("link", "fabric")

#: the link batch: mixed sizes through one sender (bytes)
DEFAULT_LINK_BATCH = (20_000_000, 10_000_000, 5_000_000, 2_500_000)

#: per-flow deadline slack for the link batch (x line-rate duration);
#: gives the ``deadline`` policy real constraints to respect
DEFAULT_DEADLINE_SLACK = 4.0


def pareto_scenario_name(workload: str, policy: str) -> str:
    """The ``pareto_<workload>-<policy>`` naming convention."""
    return f"pareto_{workload}-{policy}"


@dataclass
class ParetoResult:
    """Every policy's arm on each workload, plus frontier extraction."""

    #: one comparison per workload whose fair arm ran, in sweep order
    arms: Dict[str, Arms]
    policies: Sequence[str]

    def workload_arms(self, workload: str) -> Arms:
        if workload not in WORKLOADS:
            raise ExperimentError(
                f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}"
            )
        return self.arms.get(workload, Arms({}, f"workload={workload}"))

    def frontier(self, workload: str, tail: bool = False) -> List[str]:
        """The non-dominated policies on one workload.

        A policy is dominated when another is at least as good on both
        axes (FCT — p50, or p99 with ``tail=True`` — and energy) and
        strictly better on one. The result is sorted fastest-first.
        """
        arms = self.workload_arms(workload)
        fct = arms.fct_p99_s if tail else arms.fct_p50_s
        front: List[str] = []
        best_energy = float("inf")
        for name in sorted(arms, key=lambda n: (fct(n), arms[n].mean_energy_j)):
            if arms[name].mean_energy_j < best_energy:
                front.append(name)
                best_energy = arms[name].mean_energy_j
        return front

    def format_table(self) -> str:
        """Both workloads' frontiers as text (* marks non-dominated)."""
        blocks = []
        for workload, arms in self.arms.items():
            front = self.frontier(workload)
            rows = [
                (
                    ("*" if name in front else " ") + name,
                    arms[name].mean_energy_j,
                    arms.savings_percent(name),
                    to_msec(arms.fct_p50_s(name)),
                    to_msec(arms.fct_p99_s(name)),
                    arms.top_flow_share_percent(name),
                )
                for name in sorted(arms, key=arms.fct_p50_s)
            ]
            body = format_table(
                [
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
            blocks.append(f"{workload} workload (* = Pareto-efficient)\n{body}")
        return "\n\n".join(blocks)


def _link_scenario(
    policy: str,
    batch: Sequence[int],
    cca: str,
    deadline_slack: float,
) -> Scenario:
    """The closed shortest-first batch through one dumbbell sender."""
    rate = TestbedConfig().link_rate_bps
    flows = [
        FlowSpec(
            size,
            cca=cca,
            deadline_s=deadline_slack * (size * BITS_PER_BYTE / rate),
        )
        for size in sorted(batch)
    ]
    return Scenario(
        name=pareto_scenario_name("link", policy),
        flows=flows,
        packages=len(flows),
        policy=policy,
    )


def run_pareto(
    policies: Optional[Sequence[str]] = None,
    link_batch: Sequence[int] = DEFAULT_LINK_BATCH,
    link_cca: str = "cubic",
    deadline_slack: float = DEFAULT_DEADLINE_SLACK,
    fabric_cca: str = "dctcp",
    n_flows: int = 200,
    mix: str = "rpc",
    target_load: float = 0.3,
    leaves: int = 4,
    spines: int = 2,
    hosts_per_leaf: int = 4,
    repetitions: int = 1,
    base_seed: int = 0,
    *,
    jobs: Optional[int] = None,
    cache_dir: Union[None, str, Path, ResultCache] = None,
    observer: Optional[Observer] = None,
    on_result: Optional[ResultHook] = None,
) -> ParetoResult:
    """Sweep every policy across both workloads and build the frontier.

    ``policies=None`` means the whole registry — the figure exists to
    compare all of them. ``fair`` must be included: savings and
    dominance are measured against it.
    """
    names = resolve_policy_list(policies, policy_names(), "pareto figure")

    def factory(workload: str, policy: str) -> AnyScenario:
        if workload == "link":
            return _link_scenario(policy, link_batch, link_cca, deadline_slack)
        return FabricScenario(
            name=pareto_scenario_name("fabric", policy),
            cca=fabric_cca,
            policy=policy,
            n_flows=n_flows,
            mix=mix,
            target_load=target_load,
            leaves=leaves,
            spines=spines,
            hosts_per_leaf=hosts_per_leaf,
            deadline_slack=deadline_slack,
        )

    def to_result(results: SweepResults) -> ParetoResult:
        return ParetoResult(arms=arms_by(results, "workload"), policies=names)

    return to_result(
        Sweep({"workload": list(WORKLOADS), "policy": names}).run(
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
