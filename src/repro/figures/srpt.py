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
  *network* enforces SRPT with no end-host coordination (pFabric);
* **serialized** — application-level SRPT (each flow starts when its
  predecessor completes): the full-speed-then-idle ideal.

The batch is declared shortest-first, so chaining policies realize SRPT
order. Reported per policy: total energy, mean FCT, makespan. The
paper's §4.1/§5 prediction is fair > srpt >= serialized on energy, with
srpt also winning mean FCT — SRPT is green *and* fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.tables import format_table
from repro.figures.arms import Arms, run_arms
from repro.harness.experiment import FlowSpec, Scenario
from repro.sched import resolve_policy_list
from repro.units import to_msec

#: the batch: mixed sizes like a rack's outbound queue (bytes)
DEFAULT_BATCH = (20_000_000, 10_000_000, 5_000_000, 2_500_000)

#: the classic three-way comparison
DEFAULT_POLICIES = ("fair", "srpt", "serialized")


@dataclass
class SrptResult:
    """Every compared policy's arm over one batch."""

    arms: Arms
    batch: Sequence[int]

    def format_table(self) -> str:
        rows = [
            (
                name,
                self.arms[name].mean_energy_j,
                self.arms.savings_percent(name),
                to_msec(self.arms.mean_fct_s(name)),
                to_msec(self.arms[name].runs[0].completion_time_s),
            )
            for name in sorted(self.arms)
        ]
        return format_table(
            ["schedule", "energy (J)", "saving (%)", "mean FCT (ms)", "makespan (ms)"],
            rows,
        )


def run_srpt_comparison(
    batch: Sequence[int] = DEFAULT_BATCH,
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
    flows = [FlowSpec(size, cca="cubic") for size in sorted(batch)]

    def scenario(policy: str) -> Scenario:
        return Scenario(
            f"srpt-{policy}", flows=list(flows), packages=len(batch), policy=policy
        )

    return SrptResult(run_arms(scenario, names, seed, "srpt"), batch)
