"""Byte-range bookkeeping shared by the receiver (reassembly) and the
sender (SACK scoreboard).

A :class:`RangeSet` stores disjoint half-open ``[start, end)`` intervals
with merge-on-insert. Both TCP endpoints are, at heart, interval sets:
the receiver tracks which bytes have arrived, the sender tracks which
outstanding bytes the peer has selectively acknowledged.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List, Tuple

Interval = Tuple[int, int]


class RangeSet:
    """A set of disjoint, sorted, half-open byte intervals.

    Intervals that touch are merged, so both the starts and the ends are
    strictly increasing, and ``bisect`` on ``(x, x)`` — which sorts just
    before any interval starting at ``x`` — locates any byte.
    """

    def __init__(self) -> None:
        self._intervals: List[Interval] = []
        #: sum of interval lengths, kept current by add() and
        #: trim_below(); zero exactly when the set is empty. A plain
        #: attribute: both TCP ends test it on every packet.
        self.total_bytes = 0

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def add(self, start: int, end: int) -> int:
        """Insert ``[start, end)``, merging overlaps.

        Returns the number of bytes that were *newly* covered, which the
        receiver uses to count goodput exactly once even when segments
        are retransmitted.
        """
        if end <= start:
            raise ValueError(f"empty/negative range [{start}, {end})")
        intervals = self._intervals
        # the slice [lo, hi) of intervals that overlap or touch the new
        # one; everything outside it stays where it is
        lo = bisect_left(intervals, (start, start))
        if lo and intervals[lo - 1][1] >= start:
            lo -= 1
        hi = bisect_left(intervals, (end + 1, end + 1), lo)
        absorbed = 0  # bytes the intervals merged away already covered
        if lo < hi:
            for s, e in intervals[lo:hi]:
                absorbed += e - s
            start = min(start, intervals[lo][0])
            end = max(end, intervals[hi - 1][1])
        intervals[lo:hi] = ((start, end),)
        newly = end - start - absorbed
        self.total_bytes += newly
        return newly

    def contains(self, start: int, end: int) -> bool:
        """Whether ``[start, end)`` is fully covered."""
        idx = bisect_left(self._intervals, (start + 1, 0)) - 1
        if idx < 0:
            return False
        s, e = self._intervals[idx]
        return s <= start and end <= e

    def first_missing_after(self, point: int) -> int:
        """Lowest byte >= ``point`` not covered by any interval."""
        cursor = point
        for s, e in self._intervals:
            if e <= cursor:
                continue
            if s > cursor:
                break
            cursor = e
        return cursor

    def trim_below(self, point: int) -> None:
        """Discard coverage below ``point`` (bytes cumulatively ACKed)."""
        intervals = self._intervals
        if not intervals or intervals[0][0] >= point:
            return
        # intervals[:cut] start below the point; only the last of them
        # can reach past it
        cut = bisect_left(intervals, (point, point))
        s, e = intervals[cut - 1]
        if e > point:
            cut -= 1
            intervals[cut] = (point, e)
            self.total_bytes -= point - s
        for s, e in intervals[:cut]:
            self.total_bytes -= e - s
        del intervals[:cut]

    def blocks_above(self, point: int, limit: int = 3) -> Tuple[Interval, ...]:
        """Up to ``limit`` intervals entirely above ``point``.

        These become the SACK blocks on an ACK. RFC 2018 orders blocks
        most-recently-received first; after a loss burst the newest data
        sits highest, so reporting the *highest* blocks is the faithful
        approximation — and it is what lets the sender's scoreboard learn
        the full extent of a burst quickly.
        """
        intervals = self._intervals
        if not intervals:
            return ()
        above = intervals[bisect_left(intervals, (point + 1, point + 1)):]
        return tuple(above[-limit:])
