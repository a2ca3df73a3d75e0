"""Analytic fluid (processor-sharing) evaluation of schedule plans.

:func:`fluid_completions` predicts when each flow of a batch completes
under an idealized bottleneck: every runnable flow receives an equal
``capacity / n_active`` share, instantaneously re-divided as flows
arrive and finish. A flow becomes runnable at its arrival (admitted) or
at ``max(completion(predecessor), arrival)`` (deferred) — exactly the
semantics the harness realizes with completion chaining.

The fluid model deliberately ignores packets, RTTs, and congestion
control: it is the *planning-time* oracle the ``deadline`` policy uses
to check that a proposed deferral keeps every fair-share-feasible
deadline feasible, and the yardstick the feasibility property tests
measure against. Evaluations are pure functions of their arguments —
no RNG, no simulator — so policies built on them stay pure too.

:func:`fluid_energy_j` prices a plan on the same timeline: the paper's
§4.1 arithmetic (a running flow's host draws ``p(C / n_active)``, an
idle one ``p(0)``) integrated from t=0 to the makespan. It takes the
power curve as a callable in Gb/s, so this package never imports the
energy model.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.sched.policy import FlowRequest, SchedulePlan
from repro.units import BITS_PER_BYTE, to_gbps

#: residual-work threshold (bits) below which a flow counts as finished;
#: far under one bit, far over accumulated float drift
_RESIDUAL_BITS_EPS = 1e-3


def fluid_completions(
    requests: Sequence[FlowRequest],
    plan: SchedulePlan,
    capacity_bps: float,
) -> List[float]:
    """Per-flow completion times (seconds) under processor sharing.

    ``requests`` must be in batch order (``requests[i].index == i``,
    the same contract plans are validated against). Raises
    :class:`~repro.errors.ExperimentError` when the plan's deferrals
    form a cycle (no flow can ever become runnable).
    """
    if len(plan.flows) != len(requests):
        raise ExperimentError(
            f"plan covers {len(plan.flows)} flows but batch has "
            f"{len(requests)}"
        )
    if capacity_bps <= 0:
        raise ExperimentError(f"capacity must be > 0, got {capacity_bps}")
    n = len(requests)
    if n == 0:
        return []

    remaining = [float(r.size_bytes * BITS_PER_BYTE) for r in requests]
    ready: List[Optional[float]] = [None] * n
    successors: Dict[int, List[int]] = {}
    for i, decision in enumerate(plan.flows):
        if decision.after_index is None:
            ready[i] = requests[i].arrival_s
        else:
            successors.setdefault(decision.after_index, []).append(i)

    completion: List[Optional[float]] = [None] * n
    started = [False] * n
    active: List[int] = []
    now = 0.0
    done = 0
    while done < n:
        # Admit every flow whose ready time has come.
        for i in range(n):
            if not started[i] and ready[i] is not None and ready[i] <= now:
                started[i] = True
                active.append(i)
        pending = [
            ready[i]
            for i in range(n)
            if not started[i] and ready[i] is not None
        ]
        next_ready = min(pending) if pending else None

        if active:
            share = capacity_bps / len(active)
            finish_at = now + min(remaining[i] for i in active) / share
            step_to = (
                finish_at if next_ready is None else min(finish_at, next_ready)
            )
            if step_to > now:
                dt = step_to - now
                for i in active:
                    remaining[i] -= share * dt
        elif next_ready is None:
            stuck = [i for i in range(n) if completion[i] is None]
            raise ExperimentError(
                f"fluid evaluation deadlocked: flows {stuck} can never "
                f"become runnable (deferral cycle in plan "
                f"{plan.policy!r})"
            )
        else:
            step_to = next_ready
        now = step_to

        for i in [i for i in active if remaining[i] <= _RESIDUAL_BITS_EPS]:
            active.remove(i)
            completion[i] = now
            done += 1
            for successor in successors.get(i, ()):
                ready[successor] = max(now, requests[successor].arrival_s)
    return [c for c in completion if c is not None]


def fluid_energy_j(
    requests: Sequence[FlowRequest],
    plan: SchedulePlan,
    capacity_bps: float,
    power_w: Callable[[float], float],
) -> float:
    """Joules the batch's hosts draw while ``plan`` runs (fluid model).

    Each flow has its own host. From its start — its arrival, or
    ``max(completion(predecessor), arrival)`` when deferred — to its
    completion it draws ``power_w(capacity / n_active)``; at every
    other instant up to the makespan it draws ``power_w(0)``.
    ``power_w`` takes a throughput in Gb/s. Raises what
    :func:`fluid_completions` raises.
    """
    completion = fluid_completions(requests, plan, capacity_bps)
    start = [
        request.arrival_s
        if decision.after_index is None
        else max(completion[decision.after_index], request.arrival_s)
        for request, decision in zip(requests, plan.flows)
    ]
    idle_w = power_w(0.0)
    edges = sorted({0.0, *start, *completion})
    total = 0.0
    for t0, t1 in zip(edges, edges[1:]):
        running = sum(1 for s, c in zip(start, completion) if s <= t0 < c)
        share_w = power_w(to_gbps(capacity_bps / running)) if running else 0.0
        total += (running * share_w + (len(requests) - running) * idle_w) * (t1 - t0)
    return total
