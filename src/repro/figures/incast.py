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
from typing import List, Optional, Sequence

from repro.analysis.tables import format_table
from repro.apps.iperf import drive_until_complete
from repro.cc.registry import factory as cca_factory
from repro.energy.cpu import CpuModel
from repro.energy.meter import EnergyMeter
from repro.net.topology import TestbedConfig, build_incast_testbed
from repro.sim.engine import Simulator
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
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

    def point(self, fan_in: int) -> IncastPoint:
        for p in self.points:
            if p.fan_in == fan_in:
                return p
        raise LookupError(f"no point for fan-in {fan_in}")

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


def run_incast_point(
    fan_in: int,
    aggregate_bytes: int,
    cca: str = "cubic",
    config: Optional[TestbedConfig] = None,
    time_limit_s: float = 120.0,
) -> IncastPoint:
    """One synchronized incast epoch: N senders, aggregate/N bytes each."""
    sim = Simulator()
    testbed = build_incast_testbed(sim, fan_in, config or TestbedConfig())
    per_sender = aggregate_bytes // fan_in

    cpu_models = []
    senders: List[TcpSender] = []
    for i, host in enumerate(testbed.senders):
        cpu_models.append(CpuModel(sim, host, packages=1))
        flow_id = 1000 + i
        TcpReceiver(
            sim,
            testbed.receiver,
            flow_id,
            peer=host.name,
            expected_bytes=per_sender,
        )
        sender = TcpSender(
            sim,
            host,
            flow_id,
            dst="receiver",
            cca_factory=cca_factory(cca),
            total_bytes=per_sender,
        )
        senders.append(sender)

    meter = EnergyMeter(sim, cpu_models)
    meter.start()
    for sender in senders:
        sender.start()

    drive_until_complete(
        sim, senders, time_limit_s, f"incast fan-in {fan_in}"
    )
    energy = meter.stop()

    return IncastPoint(
        fan_in=fan_in,
        energy_j=energy,
        makespan_s=max(s.completed_at for s in senders),
        retransmissions=sum(
            int(s.counters.get("retransmits")) for s in senders
        ),
        bottleneck_drops=int(testbed.bottleneck.queue.counters.get("drops")),
    )


def run_incast_sweep(
    fan_ins: Sequence[int] = (1, 2, 4, 8),
    aggregate_bytes: int = 20_000_000,
    cca: str = "cubic",
) -> IncastResult:
    """Sweep the fan-in degree at a fixed aggregate payload."""
    points = [
        run_incast_point(n, aggregate_bytes, cca=cca) for n in fan_ins
    ]
    return IncastResult(points=points, aggregate_bytes=aggregate_bytes)
