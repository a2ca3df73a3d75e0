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
from typing import Optional, Sequence

from repro.analysis.tables import format_table
from repro.apps.workload import Workload, generate_workload
from repro.figures.arms import Arms, run_arms
from repro.harness.experiment import FlowSpec, Scenario
from repro.sched import resolve_policy_list
from repro.units import to_msec

#: the classic two-way comparison
DEFAULT_POLICIES = ("fair", "srpt")


@dataclass
class WorkloadEnergyResult:
    """Per-policy arms on one generated workload."""

    workload: Workload
    arms: Arms

    def tail_fct_s(self, name: str) -> float:
        """The p95-ish FCT: the ``int(0.95 n)``-th smallest of n."""
        durations = sorted(self.arms.fcts_s(name))
        return durations[max(0, int(0.95 * len(durations)) - 1)]

    def energy_ratio_vs_fair(self, name: str) -> float:
        return self.arms[name].mean_energy_j / self.arms["fair"].mean_energy_j

    @property
    def fct_speedup(self) -> float:
        """Mean-FCT speedup of the srpt arm over fair (the classic pair)."""
        return self.arms.fct_speedup("srpt")

    @property
    def energy_ratio(self) -> float:
        return self.energy_ratio_vs_fair("srpt")

    def format_table(self) -> str:
        rows = [
            (
                name,
                self.arms[name].mean_energy_j,
                to_msec(self.arms.mean_fct_s(name)),
                to_msec(self.tail_fct_s(name)),
            )
            for name in sorted(self.arms)
        ]
        return format_table(
            ["schedule", "energy (J)", "mean FCT (ms)", "p95 FCT (ms)"],
            rows,
        )


def _scenario(workload: Workload, policy: str, target_load: float) -> Scenario:
    flows = [
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
    arms = run_arms(
        lambda policy: _scenario(workload, policy, target_load),
        names,
        seed,
        "workload figure",
    )
    return WorkloadEnergyResult(workload=workload, arms=arms)
