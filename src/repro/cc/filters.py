"""The windowed max filter of BBR's bandwidth estimator."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple


class WindowedFilter:
    """Track the max of a stream over a sliding time window.

    Samples older than ``window`` seconds are evicted lazily on update
    and query, each in its own frame: BBR asks on every ACK and on every
    send opportunity. This is a simplified (deque-scan) version of the
    three-slot estimator in the Linux BBR code — fine at simulation ACK
    rates.
    """

    def __init__(self, window_s: float):
        if window_s <= 0:
            raise ValueError(f"window must be > 0, got {window_s}")
        self.window_s = window_s
        self._samples: Deque[Tuple[float, float]] = deque()

    def update(self, now: float, value: float) -> None:
        """Insert a sample taken at virtual time ``now``."""
        # Remove samples the new one dominates (monotonic deque).
        samples = self._samples
        while samples and value >= samples[-1][1]:
            samples.pop()
        samples.append((now, value))
        window_s = self.window_s
        while samples and now - samples[0][0] > window_s:
            samples.popleft()

    def get(self, now: float) -> Optional[float]:
        """The max over the window ending at ``now``, or None if no
        sample is that recent."""
        samples = self._samples
        window_s = self.window_s
        while samples and now - samples[0][0] > window_s:
            samples.popleft()
        return samples[0][1] if samples else None
