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
from typing import List, Optional, Sequence, Union

from repro.analysis.stats import mean
from repro.analysis.tables import format_table
from repro.errors import ExperimentError
from repro.harness.cache import ResultCache
from repro.harness.executor import SweepControl
from repro.harness.experiment import (
    AnyScenario,
    FabricScenario,
    FlowSpec,
    Scenario,
)
from repro.harness.runner import RepeatedResult
from repro.harness.sweep import Sweep, SweepResults
from repro.net.topology import TestbedConfig
from repro.obs.attrib import top_flow_share_percent
from repro.obs.observer import Observer
from repro.sched import policy_names, resolve_policy_list, resolve_policy_name
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
class ParetoPoint:
    """One (workload, policy) cell of the frontier."""

    workload: str
    policy: str
    result: RepeatedResult

    @property
    def energy_j(self) -> float:
        return self.result.mean_energy_j

    def _extras_mean(self, key: str) -> float:
        return mean([float(r.extras.get(key, 0.0)) for r in self.result.runs])

    @property
    def fct_p50_s(self) -> float:
        return self._extras_mean("fct_p50_s")

    @property
    def fct_p99_s(self) -> float:
        return self._extras_mean("fct_p99_s")

    @property
    def top_flow_share_percent(self) -> float:
        """Mean share of each run's joules billed to its hungriest flow.

        The attribution ledger's one-number view of how concentrated a
        policy leaves the energy bill: serialized schedules push it
        toward 100/n-th of the batch's largest flow, fair sharing
        flattens it toward an even split.
        """
        return mean(
            [top_flow_share_percent(r) for r in self.result.runs]
        )


@dataclass
class ParetoResult:
    """Every (workload, policy) point plus frontier extraction."""

    points: List[ParetoPoint]
    policies: Sequence[str]

    def point(self, workload: str, policy: str) -> ParetoPoint:
        name = resolve_policy_name(policy)
        for point in self.points:
            if point.workload == workload and point.policy == name:
                return point
        raise ExperimentError(
            f"no pareto point for workload={workload!r} policy={policy!r}"
        )

    def workload_points(self, workload: str) -> List[ParetoPoint]:
        if workload not in WORKLOADS:
            raise ExperimentError(
                f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}"
            )
        return [p for p in self.points if p.workload == workload]

    def savings_vs_fair_percent(self, workload: str, policy: str) -> float:
        fair = self.point(workload, "fair").energy_j
        if fair <= 0:
            raise ExperimentError(
                f"{workload}: fair arm measured non-positive energy"
            )
        return 100.0 * (fair - self.point(workload, policy).energy_j) / fair

    def frontier(self, workload: str, tail: bool = False) -> List[ParetoPoint]:
        """The non-dominated policies on one workload.

        A point is dominated when another policy is at least as good on
        both axes (FCT — p50, or p99 with ``tail=True`` — and energy)
        and strictly better on one. The result is sorted fastest-first.
        """

        def fct(p: ParetoPoint) -> float:
            return p.fct_p99_s if tail else p.fct_p50_s

        candidates = sorted(
            self.workload_points(workload), key=lambda p: (fct(p), p.energy_j)
        )
        front: List[ParetoPoint] = []
        best_energy = float("inf")
        for point in candidates:
            if point.energy_j < best_energy:
                front.append(point)
                best_energy = point.energy_j
        return front

    def format_table(self) -> str:
        """Both workloads' frontiers as text (* marks non-dominated)."""
        blocks = []
        for workload in WORKLOADS:
            points = self.workload_points(workload)
            if not points:
                continue
            front = {p.policy for p in self.frontier(workload)}
            rows = [
                (
                    ("*" if p.policy in front else " ") + p.policy,
                    p.energy_j,
                    self.savings_vs_fair_percent(workload, p.policy),
                    to_msec(p.fct_p50_s),
                    to_msec(p.fct_p99_s),
                    p.top_flow_share_percent,
                )
                for p in sorted(points, key=lambda p: p.fct_p50_s)
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
    observer: Union[None, str, Path, Observer] = None,
    control: Optional[SweepControl] = None,
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
        # Keep a workload's points only when its fair arm completed (a
        # partial figure from an aborted sweep may lack it): savings
        # and dominance are both measured against fair.
        points = []
        for workload in WORKLOADS:
            arms = {
                row["policy"]: row.result
                for row in results.where(workload=workload).rows
            }
            if "fair" in arms:
                points.extend(
                    ParetoPoint(workload, policy, result)
                    for policy, result in arms.items()
                )
        return ParetoResult(points=points, policies=names)

    return to_result(
        Sweep({"workload": list(WORKLOADS), "policy": names}).run(
            factory,
            repetitions=repetitions,
            base_seed=base_seed,
            jobs=jobs,
            cache=cache_dir,
            observer=observer,
            control=control,
            partial_figure=to_result,
        )
    )
