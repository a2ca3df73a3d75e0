"""Theorem 1 of the paper, as executable mathematics.

    Let x in R^n_{>0} be the throughputs of n flows sharing a link of
    capacity C, and P(x) = sum_i p(x_i) the power usage. Let
    x* = (C/n, ..., C/n) and y any other allocation with sum_i y_i = C.
    If p is strictly concave, then P(x*) > P(y).

This module provides:

* :func:`total_power` — P(x) for a power curve p,
* :func:`fair_allocation` — x*,
* :func:`theorem1_savings` — how much less y draws than x*,
* :func:`is_strictly_concave_on` — numeric concavity test for p,
* :func:`worst_allocation_is_fair` — search confirmation that the fair
  point maximizes P over random simplex samples.

These are used both by unit/property tests (hypothesis generates concave
curves and allocations) and by the Theorem-1 benchmark.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Sequence

from repro.errors import AnalysisError
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:
    import random

PowerCurve = Callable[[float], float]


def total_power(p: PowerCurve, throughputs: Sequence[float]) -> float:
    """P(x) = sum_i p(x_i)."""
    if not throughputs:
        raise AnalysisError("need at least one flow")
    return sum(p(x) for x in throughputs)


def fair_allocation(capacity: float, n: int) -> List[float]:
    """The TCP fair share x* = (C/n, ..., C/n)."""
    if capacity <= 0:
        raise AnalysisError(f"capacity must be > 0, got {capacity}")
    if n < 1:
        raise AnalysisError(f"need >= 1 flow, got {n}")
    return [capacity / n] * n


def is_strictly_concave_on(
    p: PowerCurve, lo: float, hi: float, samples: int = 64, tol: float = 1e-9
) -> bool:
    """Numeric midpoint test: p((a+b)/2) > (p(a)+p(b))/2 on a grid."""
    if hi <= lo:
        raise AnalysisError(f"empty interval [{lo}, {hi}]")
    step = (hi - lo) / samples
    points = [lo + i * step for i in range(samples + 1)]
    for i in range(len(points)):
        for j in range(i + 2, len(points), max(1, (len(points) - i) // 8)):
            a, b = points[i], points[j]
            mid = p((a + b) / 2.0)
            chord = (p(a) + p(b)) / 2.0
            if mid <= chord + tol:
                return False
    return True


def random_allocation(
    capacity: float, n: int, rng: random.Random
) -> List[float]:
    """A random point on the {sum = C, x_i > 0} simplex."""
    cuts = sorted(rng.random() for _ in range(n - 1))
    shares = []
    prev = 0.0
    for c in cuts:
        shares.append((c - prev) * capacity)
        prev = c
    shares.append((1.0 - prev) * capacity)
    # Nudge exact zeros away from the boundary (theorem wants > 0).
    eps = capacity * 1e-9
    return [max(s, eps) for s in shares]


def worst_allocation_is_fair(
    p: PowerCurve,
    capacity: float,
    n: int,
    trials: int = 1000,
    seed: int = 0,
) -> bool:
    """Monte-Carlo confirmation: no sampled allocation beats the fair
    share's power draw."""
    rng = RngRegistry(seed).stream("theorem1-allocations")
    fair_power = total_power(p, fair_allocation(capacity, n))
    for _ in range(trials):
        alloc = random_allocation(capacity, n, rng)
        scale = capacity / sum(alloc)
        alloc = [a * scale for a in alloc]
        if total_power(p, alloc) > fair_power:
            return False
    return True


def theorem1_savings(
    p: PowerCurve, capacity: float, allocation: Sequence[float]
) -> float:
    """Fractional power saving of ``allocation`` vs the fair share.

    Positive when the allocation is cheaper, which Theorem 1 guarantees
    for every non-fair allocation under strict concavity.
    """
    n = len(allocation)
    fair = total_power(p, fair_allocation(capacity, n))
    if fair <= 0:
        raise AnalysisError("fair-share power must be positive")
    return (fair - total_power(p, allocation)) / fair
