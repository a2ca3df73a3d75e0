"""Fairness metrics for bandwidth allocations.

The paper argues *against* optimizing fairness — but quantifying
unfairness requires a metric. Jain's index is the standard the CC
literature (and the paper's reference [34]) uses.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import AnalysisError


def jain_index(throughputs: Sequence[float]) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1].

    1.0 means perfectly fair; 1/n means one flow hogs everything.
    """
    if not throughputs:
        raise AnalysisError("need at least one throughput")
    if not all(math.isfinite(x) for x in throughputs):
        raise AnalysisError("throughputs must be finite")
    if any(x < 0 for x in throughputs):
        raise AnalysisError("throughputs must be non-negative")
    total = sum(throughputs)
    squares = sum(x * x for x in throughputs)
    if squares == 0:
        raise AnalysisError("all-zero allocation has undefined fairness")
    return (total * total) / (len(throughputs) * squares)
