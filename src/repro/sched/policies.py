"""The concrete scheduling policies the registry ships with.

Each policy is a pure planner: it looks at the batch's flow requests
and the :class:`~repro.sched.policy.SchedulingContext` and answers
admit/defer per flow (plus, for ``srpt`` on priority-capable testbeds,
network-level hints). The harness realizes the plan with the same
completion-chaining mechanics the pre-registry ad-hoc paths used, so
``fair`` and ``serialized`` reproduce the old ``mode=`` arms
bit-for-bit — the policies are where the *decisions* moved, not the
physics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.sched.fluid import fluid_completions
from repro.sched.policy import (
    FlowRequest,
    SchedulePlan,
    SchedulingContext,
    SchedulingPolicy,
)

#: pFabric-style senders: the constant-cwnd "baseline" CCA opened wide
#: enough to keep the line busy, so the priority qdisc — not the host —
#: does the scheduling (Alizadeh et al., SIGCOMM 2013 realized on this
#: simulator's dumbbell)
PFABRIC_WINDOW_SEGMENTS = 14

#: above this offered load the ``load-adaptive`` policy shares; at or
#: below it — and for closed batches — it serializes (the fleet-level
#: sign flip documented in docs/datacenter.md, made a policy input)
DEFAULT_LOAD_THRESHOLD = 0.25

#: the ``deadline`` policy's exact construction runs one fluid
#: evaluation per candidate deferral (O(n^2) flow-events total); past
#: this batch size it falls back to the per-chain slack heuristic
DEADLINE_EXACT_MAX_FLOWS = 64


def _meets(completion_s: float, deadline_s: float) -> bool:
    """Deadline check with relative float slack (fluid times drift)."""
    return completion_s <= deadline_s + max(abs(deadline_s), 1.0) * 1e-9


def _serial_after(requests: Sequence[FlowRequest]) -> List[Optional[int]]:
    """Per-source chaining in batch order.

    On a fabric each source host runs its flows one at a time; on the
    single-link testbed every flow shares one source, so the whole batch
    forms a single chain in declaration order.
    """
    after: List[Optional[int]] = []
    last_by_src: Dict[str, int] = {}
    for request in requests:
        after.append(last_by_src.get(request.src))
        last_by_src[request.src] = request.index
    return after


class FairPolicy(SchedulingPolicy):
    """Every flow starts at its arrival; concurrent flows share links."""

    name = "fair"
    description = (
        "admit every flow at its arrival; concurrent flows fair-share "
        "the bottleneck (what deployed CCAs converge to)"
    )

    def plan(
        self, requests: Sequence[FlowRequest], ctx: SchedulingContext
    ) -> SchedulePlan:
        return self._plan(requests, [None] * len(requests))


class SerializedPolicy(SchedulingPolicy):
    """Full-speed-then-idle: each source runs its flows one at a time."""

    name = "serialized"
    description = (
        "chain each source's flows one-at-a-time in arrival order "
        "(full-speed-then-idle, the paper's energy-winning allocation)"
    )

    def plan(
        self, requests: Sequence[FlowRequest], ctx: SchedulingContext
    ) -> SchedulePlan:
        return self._plan(requests, _serial_after(requests))


class SrptPolicy(SchedulingPolicy):
    """Shortest-remaining-processing-time: finish small flows first."""

    name = "srpt"
    description = (
        "remaining-bytes priority: a pFabric-style priority qdisc where "
        "the testbed supports one, clairvoyant shortest-job-first "
        "chains per source elsewhere"
    )

    def plan(
        self, requests: Sequence[FlowRequest], ctx: SchedulingContext
    ) -> SchedulePlan:
        if ctx.supports_priority:
            # The network schedules, senders blast: all flows admitted,
            # priority bottleneck, line-rate constant-cwnd senders.
            return self._plan(
                requests,
                [None] * len(requests),
                bottleneck_discipline="priority",
                sender_cca="baseline",
                sender_cca_kwargs={
                    "window_segments": PFABRIC_WINDOW_SEGMENTS
                },
            )
        # No priority qdisc at this testbed (fabrics): approximate SRPT
        # with clairvoyant shortest-job-first chains per source host.
        by_src: Dict[str, List[FlowRequest]] = {}
        for request in requests:
            by_src.setdefault(request.src, []).append(request)
        after: List[Optional[int]] = [None] * len(requests)
        for group in by_src.values():
            ranked = sorted(
                group, key=lambda r: (r.size_bytes, r.arrival_s, r.index)
            )
            for prev, nxt in zip(ranked, ranked[1:]):
                after[nxt.index] = prev.index
        return self._plan(requests, after)


class DeadlinePolicy(SchedulingPolicy):
    """Serialize only the flows whose slack allows it.

    Construction guarantee (the property the hypothesis suite checks):
    any deadline that fair sharing meets under the fluid model is still
    met under this policy's plan. For batches up to
    :data:`DEADLINE_EXACT_MAX_FLOWS` that holds *by construction* —
    each candidate deferral is accepted only after a full fluid
    re-evaluation shows every fair-feasible deadline still feasible.
    Larger batches use a per-chain slack heuristic that protects each
    deferred flow's own deadline (deferring a flow can only delay that
    flow and its chain successors under processor sharing, so admitted
    flows keep their fair-share service or better).
    """

    name = "deadline"
    description = (
        "serialize flows whose slack allows it; every deadline that "
        "fair sharing meets stays met"
    )

    def plan(
        self, requests: Sequence[FlowRequest], ctx: SchedulingContext
    ) -> SchedulePlan:
        if len(requests) <= DEADLINE_EXACT_MAX_FLOWS:
            return self._plan(requests, self._exact_after(requests, ctx))
        return self._plan(requests, self._heuristic_after(requests, ctx))

    def _exact_after(
        self, requests: Sequence[FlowRequest], ctx: SchedulingContext
    ) -> List[Optional[int]]:
        def completions(after: List[Optional[int]]) -> List[float]:
            return fluid_completions(
                requests, self._plan(requests, after), ctx.capacity_bps
            )

        n = len(requests)
        after: List[Optional[int]] = [None] * n
        if n == 0:
            return after
        fair = completions(after)
        # The guarantees: every deadline fair sharing itself meets.
        guarded = [
            i
            for i, request in enumerate(requests)
            if request.deadline_s is not None
            and _meets(fair[i], request.deadline_s)
        ]
        last_by_src: Dict[str, int] = {}
        for i, request in enumerate(requests):
            predecessor = last_by_src.get(request.src)
            last_by_src[request.src] = i
            if predecessor is None:
                continue
            candidate = list(after)
            candidate[i] = predecessor
            done = completions(candidate)
            if all(
                _meets(done[g], requests[g].deadline_s)  # type: ignore[arg-type]
                for g in guarded
            ):
                after = candidate
        return after

    def _heuristic_after(
        self, requests: Sequence[FlowRequest], ctx: SchedulingContext
    ) -> List[Optional[int]]:
        after: List[Optional[int]] = [None] * len(requests)
        est_finish: List[float] = [0.0] * len(requests)
        last_by_src: Dict[str, int] = {}
        for i, request in enumerate(requests):
            predecessor = last_by_src.get(request.src)
            duration = request.line_rate_duration_s(ctx.capacity_bps)
            solo_finish = request.arrival_s + duration
            if predecessor is None:
                estimate = solo_finish
            else:
                chained = max(est_finish[predecessor], request.arrival_s)
                estimate = chained + duration
                if request.deadline_s is None or _meets(
                    estimate, request.deadline_s
                ):
                    after[i] = predecessor
                else:
                    estimate = solo_finish
            est_finish[i] = estimate
            last_by_src[request.src] = i
        return after


class LoadAdaptivePolicy(SchedulingPolicy):
    """Share under heavy offered load, serialize otherwise.

    docs/datacenter.md documents the fleet-level sign flip: at ~30 %
    offered load, serializing *costs* ~11 % because idle fleet power
    burns over the stretched makespan. This policy turns that finding
    into a decision rule: closed batches (``offered_load is None`` —
    the paper's classic single-bottleneck win) and lightly loaded
    open workloads serialize; anything above the threshold shares.
    """

    name = "load-adaptive"
    description = (
        "serialize closed or lightly loaded batches, fair-share above "
        "the load threshold (the fleet-level sign flip as a policy)"
    )

    def __init__(self, threshold: float = DEFAULT_LOAD_THRESHOLD) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ExperimentError(
                f"load threshold must be in [0, 1], got {threshold}"
            )
        self.threshold = threshold

    def plan(
        self, requests: Sequence[FlowRequest], ctx: SchedulingContext
    ) -> SchedulePlan:
        load = ctx.offered_load
        if load is not None and load > self.threshold:
            return self._plan(requests, [None] * len(requests))
        return self._plan(requests, _serial_after(requests))
