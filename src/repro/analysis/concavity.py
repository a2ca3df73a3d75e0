"""Concavity diagnostics for measured power-vs-throughput curves.

The paper's central empirical claim is that measured power is a strictly
concave, increasing function of throughput (Fig. 2). Given sampled
(throughput, power) points, these helpers check:

* monotonicity (power increases with throughput),
* discrete concavity (second differences non-positive),
* decreasing marginal power (the phrasing used in §4.1), and
* the chord property: bursting at line rate then idling (the chord from
  p(0) to p(C)) beats smooth sending at every interior throughput.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import AnalysisError

Point = Tuple[float, float]


def _validate(points: Sequence[Point]) -> List[Point]:
    if len(points) < 3:
        raise AnalysisError("need >= 3 points for concavity analysis")
    ordered = sorted(points)
    xs = [p[0] for p in ordered]
    if len(set(xs)) != len(xs):
        raise AnalysisError("duplicate x values")
    return ordered

def is_increasing(points: Sequence[Point], tol: float = 0.0) -> bool:
    """Whether power rises with throughput (allowing ``tol`` slack)."""
    ordered = _validate(points)
    return all(
        b[1] >= a[1] - tol for a, b in zip(ordered, ordered[1:])
    )


def marginal_powers(points: Sequence[Point]) -> List[float]:
    """Per-interval marginal power (delta W per delta Gb/s)."""
    ordered = _validate(points)
    out = []
    for (x0, y0), (x1, y1) in zip(ordered, ordered[1:]):
        if x1 == x0:
            raise AnalysisError("duplicate x in marginal computation")
        out.append((y1 - y0) / (x1 - x0))
    return out


def has_decreasing_marginals(points: Sequence[Point], tol: float = 0.0) -> bool:
    """§4.1's condition: marginal power decreases with throughput."""
    margins = marginal_powers(points)
    return all(b <= a + tol for a, b in zip(margins, margins[1:]))


def is_concave(points: Sequence[Point], tol: float = 0.0) -> bool:
    """Discrete concavity (equivalent to decreasing marginals)."""
    return has_decreasing_marginals(points, tol=tol)


def chord_gap(points: Sequence[Point]) -> List[float]:
    """Curve-minus-chord at each interior point.

    The chord runs from the first to the last sample; positive entries
    mean smooth sending at that throughput draws *more* power than the
    equivalent full-speed-then-idle time-average (Fig. 2's orange line).
    """
    ordered = _validate(points)
    (x0, y0), (xn, yn) = ordered[0], ordered[-1]
    if xn == x0:
        raise AnalysisError("degenerate chord")
    slope = (yn - y0) / (xn - x0)
    return [y - (y0 + slope * (x - x0)) for x, y in ordered[1:-1]]
