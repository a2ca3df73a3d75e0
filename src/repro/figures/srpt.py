"""§5 extension: energy of SRPT-approximating transports.

The paper's future-work section: "One intriguing approach would be to
measure the energy usage of existing transport protocols that
approximate the Shortest Remaining Processing Time first (SRPT)
scheduling [pFabric, PIAS, Aeolus, Homa]."

This experiment runs the same mixed-size batch of flows once per
scheduling policy (default: the classic three-way comparison):

* **fair** — FIFO bottleneck, all flows start together: classic TCP
  sharing, the energy-worst case by Theorem 1;
* **srpt** — priority bottleneck (packets carry remaining-bytes
  priority) with line-rate senders, all flows start together: the
  *network* enforces SRPT with no end-host coordination (pFabric; the
  retired "pfabric" spelling aliases here);
* **serialized** — application-level SRPT (each flow starts when its
  predecessor completes): the full-speed-then-idle ideal.

The batch is declared shortest-first, so chaining policies realize SRPT
order. Reported per policy: total energy, mean FCT, makespan. The
paper's §4.1/§5 prediction is fair > srpt >= serialized on energy, with
srpt also winning mean FCT — SRPT is green *and* fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.stats import mean
from repro.analysis.tables import format_table
from repro.errors import ExperimentError
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import RunMeasurement, run_once
from repro.sched import (
    PFABRIC_WINDOW_SEGMENTS,
    resolve_policy_list,
    resolve_policy_name,
)
from repro.units import to_msec

__all__ = [
    "DEFAULT_BATCH",
    "DEFAULT_POLICIES",
    "PFABRIC_WINDOW_SEGMENTS",  # re-exported; canonical home is repro.sched
    "SrptPoint",
    "SrptResult",
    "run_srpt_comparison",
]

#: the batch: mixed sizes like a rack's outbound queue (bytes)
DEFAULT_BATCH = (20_000_000, 10_000_000, 5_000_000, 2_500_000)

#: the classic three-way comparison
DEFAULT_POLICIES = ("fair", "srpt", "serialized")


@dataclass
class SrptPoint:
    """One policy's outcome."""

    schedule: str
    measurement: RunMeasurement

    @property
    def energy_j(self) -> float:
        return self.measurement.energy_j

    @property
    def mean_fct_s(self) -> float:
        return mean([r.duration_s for r in self.measurement.flow_results])

    @property
    def makespan_s(self) -> float:
        return self.measurement.completion_time_s


@dataclass
class SrptResult:
    """All compared policies side by side, keyed by canonical name."""

    points: Dict[str, SrptPoint]
    batch: Sequence[int]

    def point(self, schedule: str) -> SrptPoint:
        """One policy's point; retired spellings resolve via aliases."""
        name = resolve_policy_name(schedule)
        if name not in self.points:
            ran = ", ".join(sorted(self.points))
            raise ExperimentError(
                f"no srpt point for policy {schedule!r} (ran: {ran})"
            )
        return self.points[name]

    def energy_savings_vs_fair(self, schedule: str) -> float:
        fair = self.points["fair"].energy_j
        return (fair - self.point(schedule).energy_j) / fair

    def fct_speedup_vs_fair(self, schedule: str) -> float:
        fair = self.points["fair"].mean_fct_s
        return fair / self.point(schedule).mean_fct_s

    def format_table(self) -> str:
        rows = []
        for name, p in sorted(self.points.items()):
            rows.append(
                (
                    name,
                    p.energy_j,
                    100 * self.energy_savings_vs_fair(name),
                    to_msec(p.mean_fct_s),
                    to_msec(p.makespan_s),
                )
            )
        return format_table(
            ["schedule", "energy (J)", "saving (%)", "mean FCT (ms)", "makespan (ms)"],
            rows,
        )


def run_srpt_comparison(
    batch: Sequence[int] = DEFAULT_BATCH,
    cca: str = "cubic",
    seed: int = 0,
    policies: Optional[Sequence[str]] = None,
) -> SrptResult:
    """Run the per-policy comparison over one shortest-first batch.

    Every policy sees the identical flow declarations (the batch sorted
    shortest-first, all arriving at t=0) and decides admit/defer —
    plus, for ``srpt`` on this priority-capable dumbbell, the
    network-level hints (priority qdisc, constant-cwnd line-rate
    senders: pFabric's actual design, since window-based CCAs would
    back off exactly when the scheduler wants them blasting).

    ``fair`` must be among the policies: the table reports savings
    relative to it.
    """
    names = resolve_policy_list(policies, DEFAULT_POLICIES, "srpt comparison")
    n = len(batch)
    flows: List[FlowSpec] = [
        FlowSpec(size, cca=cca) for size in sorted(batch)
    ]
    points = {}
    for name in names:
        scenario = Scenario(
            f"srpt-{name}",
            flows=list(flows),
            packages=n,
            policy=name,
        )
        points[name] = SrptPoint(name, run_once(scenario, seed=seed))
    return SrptResult(points=points, batch=batch)
