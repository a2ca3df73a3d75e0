"""Bandwidth-allocation strategies for flows sharing a bottleneck.

The paper's Fig. 1 sweeps a family of allocations for two equal-size
transfers on one link, from "flow 1 gets (almost) nothing" through the
TCP fair share to "flow 1 gets (almost) everything", plus the extreme
*full speed, then idle* schedule where the flows take turns at line rate.

An :class:`AllocationPlan` describes, per flow, a target rate and a start
time; :func:`fig1_allocations` generates the paper's sweep. The plans are
consumed by the experiment harness, which realizes them with iperf-style
rate caps (``-b``) and staggered starts — exactly how the paper's scripts
realize them on the testbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ExperimentError

#: the sweep's anchor plan names (consumers match on these, not literals)
FAIR_PLAN_NAME = "fair"
FSTI_PLAN_NAME = "full-speed-then-idle"


@dataclass
class FlowPlan:
    """Rate cap and start time for one flow."""

    total_bytes: int
    #: application-level rate cap (None = unlimited, take what TCP gives)
    target_rate_bps: Optional[float]
    start_time_s: float = 0.0
    #: lift this flow's rate cap when the flow at this index completes
    #: ("allowing the remaining flow to use the rest of the link")
    uncap_after: Optional[int] = None


@dataclass
class AllocationPlan:
    """A named bandwidth-allocation schedule for n flows."""

    name: str
    flows: List[FlowPlan]
    #: fraction of the bottleneck nominally held by flow 0 (Fig. 1 x-axis);
    #: None for schedules where the notion doesn't apply
    flow0_fraction: Optional[float] = None


def fair_split(
    total_bytes: int, capacity_bps: float, n_flows: int = 2
) -> AllocationPlan:
    """Everybody gets C/n simultaneously — the TCP fair share."""
    share = capacity_bps / n_flows
    return AllocationPlan(
        name=FAIR_PLAN_NAME,
        flows=[FlowPlan(total_bytes, share) for _ in range(n_flows)],
        flow0_fraction=1.0 / n_flows,
    )


def limited_flow_split(
    total_bytes: int,
    capacity_bps: float,
    fraction: float,
) -> AllocationPlan:
    """Flow 0 holds ``fraction`` of the link while both flows share it.

    The paper's Fig. 1 methodology: "We limited the throughput of one
    flow, allowing the remaining flow to use the rest of the link." The
    *capped* flow is always the majority one; the uncapped flow takes
    what is left during sharing and inherits the whole link once the
    capped flow completes — so the bottleneck stays fully utilized and
    both flows always finish in the same total time, whatever the split.
    (Capping the minority flow instead would leave the link mostly idle
    for its long tail, which is a different — and strictly worse —
    experiment.)
    """
    if not 0.0 < fraction < 1.0:
        raise ExperimentError(f"fraction must be in (0, 1), got {fraction}")
    minority_share = min(fraction, 1.0 - fraction)
    if fraction >= 0.5:
        majority_idx, minority_idx = 0, 1  # flow 0 holds the majority
    else:
        majority_idx, minority_idx = 1, 0
    flows = [
        FlowPlan(total_bytes, None),
        FlowPlan(total_bytes, None),
    ]
    flows[minority_idx] = FlowPlan(
        total_bytes,
        minority_share * capacity_bps,
        uncap_after=majority_idx,
    )
    return AllocationPlan(
        name=f"limited-{fraction:.2f}",
        flows=flows,
        flow0_fraction=fraction,
    )


def full_speed_then_idle(
    total_bytes: int,
    capacity_bps: float,
    n_flows: int = 2,
    guard_s: float = 0.0,
) -> AllocationPlan:
    """Flows run one after another, each at line rate (the cheapest plan).

    Start times are staggered by each predecessor's ideal transfer time
    plus ``guard_s``. In the harness the successor actually starts when
    its predecessor *completes* (so loss never overlaps them); the times
    here are the nominal schedule.
    """
    duration = total_bytes * 8.0 / capacity_bps
    flows = [
        FlowPlan(total_bytes, None, start_time_s=i * (duration + guard_s))
        for i in range(n_flows)
    ]
    return AllocationPlan(name=FSTI_PLAN_NAME, flows=flows, flow0_fraction=1.0)


def fig1_allocations(
    total_bytes: int,
    capacity_bps: float,
    fractions: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
) -> List[AllocationPlan]:
    """The paper's Fig. 1 sweep: capped splits plus the serialized extreme."""
    plans = []
    for fraction in fractions:
        if abs(fraction - 0.5) < 1e-9:
            plans.append(fair_split(total_bytes, capacity_bps))
        else:
            plans.append(limited_flow_split(total_bytes, capacity_bps, fraction))
    plans.append(full_speed_then_idle(total_bytes, capacity_bps))
    return plans
