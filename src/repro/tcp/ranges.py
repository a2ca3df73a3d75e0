"""Byte-range bookkeeping shared by the receiver (reassembly) and the
sender (SACK scoreboard).

A :class:`RangeSet` stores disjoint half-open ``[start, end)`` intervals
with merge-on-insert. Both TCP endpoints are, at heart, interval sets:
the receiver tracks which bytes have arrived, the sender tracks which
outstanding bytes the peer has selectively acknowledged.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator, List, Tuple

Interval = Tuple[int, int]


class RangeSet:
    """A set of disjoint, sorted, half-open byte intervals."""

    def __init__(self) -> None:
        self._intervals: List[Interval] = []
        #: sum of interval lengths, kept current by add() and trim_below()
        self._total = 0

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    @property
    def total_bytes(self) -> int:
        """Sum of interval lengths."""
        return self._total

    def add(self, start: int, end: int) -> int:
        """Insert ``[start, end)``, merging overlaps.

        Returns the number of bytes that were *newly* covered, which the
        receiver uses to count goodput exactly once even when segments
        are retransmitted.
        """
        if end <= start:
            raise ValueError(f"empty/negative range [{start}, {end})")
        merged_start, merged_end = start, end
        absorbed = 0  # bytes the intervals merged away already covered
        # the rebuild-into-a-fresh-list is the merge algorithm itself,
        # not an incidental allocation; interval counts stay small (SACK
        # scoreboards hold a handful of holes)
        keep: List[Interval] = []  # simlint: ignore[perf-alloc-in-hot-path]
        for s, e in self._intervals:
            if e < merged_start or s > merged_end:
                keep.append((s, e))
            else:
                absorbed += e - s
                merged_start = min(merged_start, s)
                merged_end = max(merged_end, e)
        insort(keep, (merged_start, merged_end))
        self._intervals = keep
        newly = merged_end - merged_start - absorbed
        self._total += newly
        return newly

    def contains(self, start: int, end: int) -> bool:
        """Whether ``[start, end)`` is fully covered."""
        idx = bisect_left(self._intervals, (start + 1, 0)) - 1
        if idx < 0:
            return False
        s, e = self._intervals[idx]
        return s <= start and end <= e

    def covers_point(self, point: int) -> bool:
        """Whether byte ``point`` is covered."""
        return self.contains(point, point + 1)

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
        # rebuild is the algorithm; interval counts stay small
        out: List[Interval] = []  # simlint: ignore[perf-alloc-in-hot-path]
        for s, e in self._intervals:
            if e <= point:
                self._total -= e - s
                continue
            if s < point:
                self._total -= point - s
                s = point
            out.append((s, e))
        self._intervals = out

    def blocks_above(self, point: int, limit: int = 3) -> Tuple[Interval, ...]:
        """Up to ``limit`` intervals entirely above ``point``.

        These become the SACK blocks on an ACK. RFC 2018 orders blocks
        most-recently-received first; after a loss burst the newest data
        sits highest, so reporting the *highest* blocks is the faithful
        approximation — and it is what lets the sender's scoreboard learn
        the full extent of a burst quickly.
        """
        # builds the SACK block tuple for one ACK; bounded by `limit`
        out = [iv for iv in self._intervals if iv[0] > point]  # simlint: ignore[perf-alloc-in-hot-path]
        return tuple(out[-limit:])
