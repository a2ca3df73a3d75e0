"""§5 extension: energy under production-datacenter workloads.

Runs the published web-search / data-mining flow-size distributions as
an open-loop Poisson workload through one sender host (the paper's
"multiplexing multiple flows at the same sender" case) under any set
of registered scheduling policies — classically:

* **fair** — every flow is a normal CUBIC connection over the FIFO
  bottleneck;
* **srpt** — pFabric-style priority bottleneck with line-rate senders.

The workload's target load reaches each policy as the scheduling
context's ``offered_load`` (what ``load-adaptive`` conditions on).
Reported: total energy over the busy window, mean and p99-ish FCT. The
expected shape: on heavy-tailed traffic SRPT slashes mean FCT (mice
stop waiting behind elephants) at equal-or-better energy — the "green
and fast" conclusion of §5 under realistic load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.stats import mean
from repro.analysis.tables import format_table
from repro.apps.workload import Workload, generate_workload
from repro.errors import ExperimentError
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import RunMeasurement, run_once
from repro.sched import resolve_policy_list, resolve_policy_name
from repro.units import to_msec

#: the classic two-way comparison
DEFAULT_POLICIES = ("fair", "srpt")


@dataclass
class WorkloadPoint:
    """One policy's outcome on one workload."""

    schedule: str
    measurement: RunMeasurement

    @property
    def energy_j(self) -> float:
        return self.measurement.energy_j

    @property
    def mean_fct_s(self) -> float:
        return mean([r.duration_s for r in self.measurement.flow_results])

    @property
    def tail_fct_s(self) -> float:
        durations = sorted(r.duration_s for r in self.measurement.flow_results)
        index = max(0, int(0.95 * len(durations)) - 1)
        return durations[index]


@dataclass
class WorkloadEnergyResult:
    """Per-policy outcomes on one generated workload."""

    workload: Workload
    points: Dict[str, WorkloadPoint]

    def point(self, schedule: str) -> WorkloadPoint:
        """One policy's point; retired spellings resolve via aliases."""
        name = resolve_policy_name(schedule)
        if name not in self.points:
            ran = ", ".join(sorted(self.points))
            raise ExperimentError(
                f"no workload point for policy {schedule!r} (ran: {ran})"
            )
        return self.points[name]

    @property
    def fct_speedup(self) -> float:
        """Mean-FCT speedup of the srpt arm over fair (the classic pair)."""
        return self.points["fair"].mean_fct_s / self.points["srpt"].mean_fct_s

    @property
    def energy_ratio(self) -> float:
        return self.points["srpt"].energy_j / self.points["fair"].energy_j

    def format_table(self) -> str:
        rows = []
        for name, p in sorted(self.points.items()):
            rows.append(
                (
                    name,
                    p.energy_j,
                    to_msec(p.mean_fct_s),
                    to_msec(p.tail_fct_s),
                )
            )
        return format_table(
            ["schedule", "energy (J)", "mean FCT (ms)", "p95 FCT (ms)"],
            rows,
        )


def _scenario(workload: Workload, policy: str, target_load: float) -> Scenario:
    flows: List[FlowSpec] = [
        FlowSpec(
            arrival.size_bytes,
            cca="cubic",
            start_time_s=arrival.start_time_s,
        )
        for arrival in workload.flows
    ]
    return Scenario(
        name=f"workload-{workload.name}-{policy}",
        flows=flows,
        packages=1,  # one sender host: the multiplexing case
        time_limit_s=600.0,
        policy=policy,
        offered_load=target_load,
    )


def run_workload_energy(
    distribution: str = "web-search",
    target_load: float = 0.5,
    duration_s: float = 0.03,
    seed: int = 0,
    policies: Optional[Sequence[str]] = None,
) -> WorkloadEnergyResult:
    """Generate one workload and run it under every requested policy."""
    names = resolve_policy_list(
        policies, DEFAULT_POLICIES, "workload figure", require_fair=False
    )
    workload = generate_workload(
        distribution=distribution,
        target_load=target_load,
        duration_s=duration_s,
        seed=seed,
    )
    points = {
        name: WorkloadPoint(
            name,
            run_once(_scenario(workload, name, target_load), seed=seed),
        )
        for name in names
    }
    return WorkloadEnergyResult(workload=workload, points=points)
