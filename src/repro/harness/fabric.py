"""How a scenario becomes a run: one record, two small build steps.

:func:`repro.harness.runner.run_once` runs every scenario kind through
one pipeline; a kind differs only in its *build* step, which a
scenario's ``build`` method names. Both steps return a
:class:`PreparedRun` (the graph, one :class:`FlowRow` per flow, the
policy's plan, made once per run, the meter, and for a fleet the switch
power model), and the runner does the rest the same way for both:

* :func:`build_link` — a :class:`~repro.harness.experiment.Scenario`'s
  declared flows on the paper's testbed (a one-switch fabric), metered
  on the sender hosts' CPUs;
* :func:`build_fabric` — a
  :class:`~repro.harness.experiment.FabricScenario`'s generated
  workload of ~10^3 flows under one congestion controller on a fresh
  leaf–spine (or fat-tree) fabric, metered fleet-wide: every host CPU
  plus every switch, over the makespan.

The scheduling policy (a :mod:`repro.sched` registry name) decides
per-flow admit/defer: ``fair`` starts every flow at its arrival, while
``serialized`` chains each source host's flows one at a time (the
full-speed-then-idle allocation the paper shows is cheaper);
``srpt``/``deadline``/``load-adaptive`` produce other chain shapes
through the same mechanism. Every policy transfers exactly the same
bytes between the same host pairs, so the energy delta is the
allocation's doing, not the workload's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional

from repro.apps.workload import generate_fabric_workload
from repro.energy.cpu import CpuModel
from repro.energy.meter import EnergyMeter
from repro.energy.switch_power import (
    SwitchPowerModel,
    rate_adaptive_switch,
    todays_switch,
)
from repro.harness.experiment import FabricScenario, FlowSpec, Scenario
from repro.net.host import Host
from repro.net.topology import (
    Fabric,
    build_fat_tree,
    build_leaf_spine,
    build_testbed,
)
from repro.sched import (
    FlowRequest,
    SchedulePlan,
    SchedulingContext,
    get_policy,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.units import BITS_PER_BYTE

if TYPE_CHECKING:
    from repro.apps.iperf import IperfSession
    from repro.apps.probe import ThroughputProbe


class FlowRow(NamedTuple):
    """One flow of a run: what it transfers, and between which hosts."""

    spec: FlowSpec
    src: Host
    dst: Host


@dataclass
class PreparedRun:
    """A built run: what the runner drives, then measures."""

    fabric: Fabric
    #: one row per flow, in order: flow ``i`` gets flow id ``i + 1``
    flows: List[FlowRow]
    plan: SchedulePlan
    #: meters every CPU model of the run; a flow is pinned to a package
    #: of its sender host's model
    meter: EnergyMeter
    #: prices every switch into a fleet-wide total; None meters the
    #: hosts alone
    switch_model: Optional[SwitchPowerModel] = None
    #: what the build knows that the fleet measurement reports
    extras: Dict[str, float] = field(default_factory=dict)
    #: added by the runner: one session per flow, and their probes
    sessions: List[IperfSession] = field(default_factory=list)
    probes: Dict[int, ThroughputProbe] = field(default_factory=dict)


def build_link(scenario: Scenario, sim: Simulator, seed: int) -> PreparedRun:
    """The testbed, its flows, and one CPU model per sender host."""
    plan = scenario.plan()
    testbed = build_testbed(sim, scenario.testbed_config(plan))
    cpu_models = [
        CpuModel(
            sim,
            host,
            # sized by the flows the host carries
            packages=scenario.packages
            or max(2, sum(f.sender_host == h for f in scenario.flows)),
            sample_interval_s=scenario.sample_interval_s,
        )
        for h, host in enumerate(testbed.hosts[:-1])
    ]
    if scenario.power_noise_sigma > 0:
        noise_rng = RngRegistry(seed).stream("power-noise")
        for model in cpu_models:
            model.set_noise(noise_rng, scenario.power_noise_sigma)
    if scenario.background_load > 0:
        for model in cpu_models:
            model.set_background_load(scenario.background_load)
    return PreparedRun(
        fabric=testbed,
        flows=[
            FlowRow(flow, testbed.hosts[flow.sender_host], testbed.receiver)
            for flow in scenario.flows
        ],
        plan=plan,
        meter=EnergyMeter(sim, cpu_models),
    )


def build_fabric(
    scenario: FabricScenario, sim: Simulator, seed: int
) -> PreparedRun:
    """The fabric, its generated workload, and one CPU model per host."""
    config = scenario.fabric_config()
    fabric = (
        build_fat_tree(sim, config=config)
        if scenario.topology == "fat-tree"
        else build_leaf_spine(sim, config)
    )
    rate = fabric.config.host_link_rate_bps
    workload = generate_fabric_workload(
        hosts=[h.name for h in fabric.hosts],
        rack_of=fabric.host_rack,
        mix=scenario.mix,
        n_flows=scenario.n_flows,
        target_load=scenario.target_load,
        host_capacity_bps=rate,
        seed=seed,
    )
    requests = [
        FlowRequest(
            index=i,
            size_bytes=flow.size_bytes,
            arrival_s=flow.start_time_s,
            src=flow.src,
            dst=flow.dst,
            deadline_s=flow.start_time_s
            + scenario.deadline_slack
            * (flow.size_bytes * BITS_PER_BYTE / rate),
        )
        for i, flow in enumerate(workload.flows)
    ]
    ctx = SchedulingContext(
        capacity_bps=rate,
        offered_load=workload.offered_load,
        # Fabric ports are FIFO/ECN; no pFabric qdisc at this scale.
        supports_priority=False,
    )
    hosts: Dict[str, Host] = {h.name: h for h in fabric.hosts}
    cpu_models = [
        CpuModel(
            sim,
            host,
            packages=1,
            sample_interval_s=scenario.sample_interval_s,
        )
        for host in fabric.hosts
    ]
    return PreparedRun(
        fabric=fabric,
        flows=[
            FlowRow(
                FlowSpec(
                    flow.size_bytes,
                    cca=scenario.cca,
                    start_time_s=flow.start_time_s,
                ),
                hosts[flow.src],
                hosts[flow.dst],
            )
            for flow in workload.flows
        ],
        plan=get_policy(scenario.policy).plan(requests, ctx),
        meter=EnergyMeter(sim, cpu_models),
        switch_model=(
            rate_adaptive_switch()
            if scenario.switch_power == "rate-adaptive"
            else todays_switch()
        ),
        extras={"offered_load": workload.offered_load},
    )
