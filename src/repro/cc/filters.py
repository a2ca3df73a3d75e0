"""Windowed max/min filters used by BBR's model estimators."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple


class WindowedFilter:
    """Track the max (or min) of a stream over a sliding time window.

    Samples older than ``window`` seconds are evicted lazily on update
    and query, each in its own frame: BBR asks on every ACK and on every
    send opportunity. This is a simplified (deque-scan) version of the
    three-slot estimator in the Linux BBR code — fine at simulation ACK
    rates.
    """

    def __init__(self, window_s: float, mode: str = "max"):
        if window_s <= 0:
            raise ValueError(f"window must be > 0, got {window_s}")
        if mode not in ("max", "min"):
            raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
        self.window_s = window_s
        self.mode = mode
        self._samples: Deque[Tuple[float, float]] = deque()

    def update(self, now: float, value: float) -> None:
        """Insert a sample taken at virtual time ``now``."""
        # Remove samples the new one dominates (monotonic deque).
        samples = self._samples
        if self.mode == "max":
            while samples and value >= samples[-1][1]:
                samples.pop()
        else:
            while samples and value <= samples[-1][1]:
                samples.pop()
        samples.append((now, value))
        window_s = self.window_s
        while samples and now - samples[0][0] > window_s:
            samples.popleft()

    def get(self, now: Optional[float] = None) -> Optional[float]:
        """Current filtered value, or None if no recent samples."""
        samples = self._samples
        if now is not None:
            window_s = self.window_s
            while samples and now - samples[0][0] > window_s:
                samples.popleft()
        return samples[0][1] if samples else None

    def reset(self) -> None:
        """Drop all samples."""
        self._samples.clear()
