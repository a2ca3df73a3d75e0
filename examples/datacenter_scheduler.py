#!/usr/bin/env python3
"""Green scheduling for a batch of datacenter transfers.

The workload the paper's intro motivates: a rack-level host has a batch
of bulk transfers (backup shards, ML training data, VM images) to push
through one 10 Gb/s uplink. The fluid model of :mod:`repro.sched`
prices fair sharing against shortest-first serialized line-rate
execution (what ``greenenvy advise`` prints), and the simulation backs
the prediction with a measured run of both policies.
"""

from __future__ import annotations

from repro.core.savings import DatacenterCostModel
from repro.energy.power_model import PowerModel
from repro.harness import FlowSpec, Scenario, run_once
from repro.sched import FlowRequest, SchedulingContext, fluid_energy_j, get_policy
from repro.units import MILLION, gbps, megabytes

#: the batch, declared shortest first so that ``serialized`` (one chain
#: in declaration order) runs it in SRPT order
BATCH_MB = (5, 10, 15, 25)

POLICIES = ("fair", "serialized")


def predict(policy: str) -> float:
    """The policy's energy from the power-model arithmetic alone."""
    ctx = SchedulingContext(capacity_bps=gbps(10.0))
    requests = [FlowRequest(i, megabytes(mb)) for i, mb in enumerate(BATCH_MB)]
    plan = get_policy(policy).plan(requests, ctx)
    return fluid_energy_j(
        requests, plan, ctx.capacity_bps, PowerModel().smooth_sending_power_w
    )


def simulate(policy: str) -> float:
    """Measure one policy's energy end-to-end in the simulator."""
    flows = [FlowSpec(megabytes(mb), cca="cubic") for mb in BATCH_MB]
    scenario = Scenario(f"batch-{policy}", flows=flows, policy=policy)
    return run_once(scenario, seed=3).energy_j


def report(label: str, energy_j: dict) -> float:
    """Print one block of fair vs serialized energy; return the saving."""
    fair_j, serialized_j = (energy_j[policy] for policy in POLICIES)
    saving = 1 - serialized_j / fair_j
    print(f"  fair-share energy: {fair_j:9.3f} J")
    print(f"  serialized energy: {serialized_j:9.3f} J")
    print(f"  {label + ' saving:':<18} {saving:9.1%}")
    return saving


def main() -> None:
    print(f"batch: {', '.join(f'{mb} MB' for mb in BATCH_MB)}\n")
    print("analytic prediction (power-model arithmetic):")
    report("predicted", {policy: predict(policy) for policy in POLICIES})

    print("\nsimulated confirmation (full TCP + energy stack):")
    measured = report("measured", {policy: simulate(policy) for policy in POLICIES})

    dollars = DatacenterCostModel().annual_savings_usd(measured)
    print(
        f"\nif this saving held fleet-wide at 100k racks: "
        f"${dollars / MILLION:.0f}M/year"
    )


if __name__ == "__main__":
    main()
