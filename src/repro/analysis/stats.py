"""Small statistics helpers used across the analysis layer.

Kept dependency-free (no numpy) so the core library stays pure-stdlib;
the figure pipelines and their claims only need means, sample standard
deviations and Pearson correlations (the paper reports exactly those:
std-dev error bars, corr(energy, power) = -0.8, corr(energy, retx) = 0.47).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import AnalysisError


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean."""
    if not values:
        raise AnalysisError("mean of empty sequence")
    return sum(values) / len(values)


def sample_std(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1 denominator); 0 for n < 2."""
    n = len(values)
    if n == 0:
        raise AnalysisError("std of empty sequence")
    if n == 1:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (n - 1))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated."""
    if not values:
        raise AnalysisError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise AnalysisError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length sequences."""
    if len(xs) != len(ys):
        raise AnalysisError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise AnalysisError("correlation needs >= 2 points")
    mx, my = mean(xs), mean(ys)
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0 or vy == 0:
        raise AnalysisError("correlation undefined for constant sequence")
    return cov / math.sqrt(vx * vy)
