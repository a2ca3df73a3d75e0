"""Fabric scenarios: the fleet-scale prepare and measure steps.

:func:`repro.harness.runner.run_once` runs every scenario kind through
one pipeline; this module supplies what is particular to a
:class:`~repro.harness.experiment.FabricScenario`. The *prepare* step
builds a fresh leaf–spine (or fat-tree) fabric and realizes a generated
workload of ~10^3 concurrent flows on it under one congestion
controller; the *measure* step reports *fleet-level* energy — every
host CPU plus every switch — over the makespan. The resulting
:class:`~repro.harness.runner.RunMeasurement` flows through the ordinary
executor/cache/telemetry plumbing, which is what lets 1k+ flow sweeps
fan out over worker processes and stay bit-identical to serial runs.

The scenario's scheduling policy (a :mod:`repro.sched` registry name)
decides per-flow admit/defer fleet-wide: ``fair`` starts every flow at
its generated arrival time (concurrent flows share links), while
``serialized`` chains each source host's flows one at a time (the
full-speed-then-idle allocation the paper shows is cheaper), a deferred
successor starting at its predecessor's completion or its own arrival,
whichever is later. ``srpt``/``deadline``/``load-adaptive`` produce
other chain shapes through the same mechanism.

Every policy transfers exactly the same bytes between the same host
pairs, so the energy delta is the allocation's doing, not the
workload's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.apps.iperf import IperfSession
from repro.apps.workload import FabricWorkload, generate_fabric_workload
from repro.energy.cpu import CpuModel
from repro.energy.fleet import fleet_energy_report
from repro.energy.meter import EnergyMeter
from repro.energy.switch_power import rate_adaptive_switch, todays_switch
from repro.harness.experiment import FabricScenario
from repro.net.host import Host
from repro.net.topology import Fabric, build_fat_tree, build_leaf_spine
from repro.sched import (
    FlowRequest,
    SchedulePlan,
    SchedulingContext,
    get_policy,
)
from repro.sim.engine import Simulator
from repro.units import BITS_PER_BYTE


def _workload_for(scenario: FabricScenario, fabric: Fabric, seed: int) -> FabricWorkload:
    return generate_fabric_workload(
        hosts=[h.name for h in fabric.hosts],
        rack_of=fabric.host_rack,
        mix=scenario.mix,
        n_flows=scenario.n_flows,
        target_load=scenario.target_load,
        host_capacity_bps=fabric.config.host_link_rate_bps,
        seed=seed,
    )


def _plan_sessions(
    scenario: FabricScenario, fabric: Fabric, workload: FabricWorkload
) -> SchedulePlan:
    """Ask the scenario's policy for the fleet-wide admit/defer plan."""
    rate = fabric.config.host_link_rate_bps
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
    return get_policy(scenario.policy).plan(requests, ctx)


def _start_sessions(
    scenario: FabricScenario,
    fabric: Fabric,
    workload: FabricWorkload,
) -> List[IperfSession]:
    """Instantiate one session per generated flow, honoring the policy.

    Sessions are created in workload order first (a policy may defer a
    flow behind a *later* index — srpt's shortest-first chains), then
    chained: a deferred flow starts at its predecessor's completion,
    but never before its own arrival.
    """
    hosts: Dict[str, Host] = {h.name: h for h in fabric.hosts}
    plan = _plan_sessions(scenario, fabric, workload)
    sessions: List[IperfSession] = []
    for i, flow in enumerate(workload.flows):
        deferred = plan.schedule_for(i).deferred
        sessions.append(
            IperfSession(
                fabric,
                total_bytes=flow.size_bytes,
                cca=scenario.cca,
                # Dormant when chained behind another flow.
                start_time=None if deferred else flow.start_time_s,
                # Per-run ids (not the process-global counter):
                # measurements must stay a pure function of
                # (scenario, seed).
                flow_id=i + 1,
                src_host=hosts[flow.src],
                dst_host=hosts[flow.dst],
            )
        )
    for i, flow in enumerate(workload.flows):
        after = plan.schedule_for(i).after_index
        if after is not None:
            sessions[i].begin_after(sessions[after], flow.start_time_s)
    return sessions


@dataclass
class PreparedFabric:
    """A built fabric run: what the pipeline drives, then measures."""

    fabric: Fabric
    workload: FabricWorkload
    sessions: List[IperfSession]
    meter: EnergyMeter


def prepare_fabric(
    scenario: FabricScenario, sim: Simulator, seed: int
) -> PreparedFabric:
    """Build the fabric, its workload, the CPU fleet and the sessions."""
    config = scenario.fabric_config()
    fabric = (
        build_fat_tree(sim, config=config)
        if scenario.topology == "fat-tree"
        else build_leaf_spine(sim, config)
    )
    workload = _workload_for(scenario, fabric, seed)
    cpu_models = [
        CpuModel(
            sim,
            host,
            packages=1,
            sample_interval_s=scenario.sample_interval_s,
        )
        for host in fabric.hosts
    ]
    sessions = _start_sessions(scenario, fabric, workload)
    return PreparedFabric(
        fabric=fabric,
        workload=workload,
        sessions=sessions,
        meter=EnergyMeter(sim, cpu_models),
    )


def measure_fabric(
    scenario: FabricScenario, prepared: PreparedFabric, host_energy_j: float
) -> Dict[str, Any]:
    """The fabric-specific fields of the run's measurement.

    ``energy_j`` is the *fleet* total — summed host CPU energy plus
    per-switch energy under the scenario's switch power model,
    integrated over the makespan — and ``extras`` carries the split, so
    baselines gate on each component:

    * ``host_energy_j`` / ``switch_energy_j`` — the fleet split;
    * ``offered_load`` — the workload's realized load fraction.

    ``bottleneck_drops`` and ``ecn_marks`` aggregate every queue in the
    fabric (there is no single bottleneck port at this scale).
    """
    fabric = prepared.fabric
    switch_model = (
        rate_adaptive_switch()
        if scenario.switch_power == "rate-adaptive"
        else todays_switch()
    )
    fleet = fleet_energy_report(
        fabric.switches,
        duration_s=prepared.meter.duration_s,
        host_energy_j=host_energy_j,
        model=switch_model,
    )
    return dict(
        energy_j=fleet.total_energy_j,
        bottleneck_drops=int(
            sum(q.counters.get("drops") for q in fabric.queues)
        ),
        ecn_marks=int(
            sum(q.counters.get("ecn_marks") for q in fabric.queues)
        ),
        extras={
            "host_energy_j": fleet.host_energy_j,
            "switch_energy_j": fleet.switch_energy_j,
            "offered_load": prepared.workload.offered_load,
        },
    )
