"""§5 extension: energy under incast fan-in.

The paper validates its claims with a single sender and flags
"multiplexing multiple flows at the same sender, and incast" as the
workloads to check next. This experiment runs the classic incast
pattern — N synchronized senders delivering one aggregate payload to a
single receiver through one bottleneck port — and measures total
end-host energy, completion time and retransmissions as N grows.

The energy question: the aggregate offered work is constant (same bytes,
same bottleneck), but fan-in adds idle-host time (each of N senders
holds its package for the whole synchronized epoch) and loss-recovery
churn. Under the paper's concave power curve, energy should therefore
*grow* with N — fan-in is a form of enforced fairness, and fairness is
expensive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.tables import format_table
from repro.energy.cpu import DEFAULT_SAMPLE_INTERVAL_S
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.sweep import Sweep
from repro.units import to_msec


@dataclass
class IncastPoint:
    """Measurements for one fan-in degree."""

    fan_in: int
    energy_j: float
    makespan_s: float
    retransmissions: int
    bottleneck_drops: int


@dataclass
class IncastResult:
    """The fan-in sweep."""

    points: List[IncastPoint]
    aggregate_bytes: int

    def energy_growth(self) -> float:
        """Energy at the last fan-in relative to the first (1 -> N on
        the default sweep)."""
        first = self.points[0].energy_j
        return self.points[-1].energy_j / first

    def format_table(self) -> str:
        rows = [
            (
                p.fan_in,
                p.energy_j,
                to_msec(p.makespan_s),
                p.retransmissions,
                p.bottleneck_drops,
            )
            for p in self.points
        ]
        return format_table(
            ["fan-in", "energy (J)", "makespan (ms)", "retx", "bneck drops"],
            rows,
        )


def incast_scenario(
    fan_in: int, aggregate_bytes: int, cca: str = "cubic"
) -> Scenario:
    """One synchronized incast epoch: N sender hosts with one uplink and
    one CPU package each, all starting at 0, splitting the aggregate
    evenly (the first ``aggregate % N`` carry one byte more)."""
    share, extra = divmod(aggregate_bytes, fan_in)
    return Scenario(
        f"incast-{cca}-x{fan_in}",
        flows=[
            FlowSpec(share + (host < extra), cca=cca, sender_host=host)
            for host in range(fan_in)
        ],
        packages=1,
        sender_bonded_links=1,
        power_noise_sigma=0.0,
        start_jitter_s=0.0,
        time_limit_s=120.0,
        sample_interval_s=DEFAULT_SAMPLE_INTERVAL_S,
    )


def run_incast_sweep(
    fan_ins: Sequence[int] = (1, 2, 4, 8),
    aggregate_bytes: int = 20_000_000,
) -> IncastResult:
    """Sweep the fan-in degree at a fixed aggregate payload."""
    sweep = Sweep(axes={"fan_in": fan_ins}).run(
        lambda fan_in: incast_scenario(fan_in, aggregate_bytes),
        repetitions=1,
    )
    points = [
        IncastPoint(
            fan_in=row["fan_in"],
            energy_j=run.energy_j,
            makespan_s=run.completion_time_s,
            retransmissions=run.total_retransmissions,
            bottleneck_drops=run.bottleneck_drops,
        )
        for row in sweep.rows
        for run in row.result.runs
    ]
    return IncastResult(points=points, aggregate_bytes=aggregate_bytes)
