"""Machine-speed calibration: a fixed kernel, sampled while the work runs.

The sandbox this benchmark lives on changes speed by 20-30 % within tens
of seconds and by +-10 % from one second to the next, so a reading taken
*next to* a timed iteration says little about the speed *during* it
(one-second readings before and after left a 7-8 % quartile distance on
``lossy_mix`` iterations, from 17 % raw). :class:`SpeedSampler`
therefore takes its readings inside the timed region: an interval timer
interrupts the workload every ``INTERVAL_S`` and runs one fixed slice of
pure-Python work shaped like the simulator's hot path. The iteration's
wall time, less the time spent in slices, is then scaled by
``REF_SLICE_S / mean(slice time)``: seconds on the reference sandbox.
See README "Calibrated seconds" and "How steady it is" for what that
buys.

Imports nothing from ``repro``: a change to the simulator must not be
able to move the yardstick.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import Any, List

#: mean slice time on the sandbox the first readings were taken on
#: (2 shared cores, CPython 3.11.7); frozen when the benchmark landed
REF_SLICE_S = 0.0085

#: seconds between slices: about a tenth of the time goes to the yardstick
INTERVAL_S = 0.1

#: operations per slice of each kind of work, frozen with REF_SLICE_S.
#: Four kinds because the sandbox's disturbances do not slow all code
#: alike: calibrated against any one of them alone, a workload's
#: iterations kept a 3-7 % standard deviation; against their sum, 2-4 %.
HEAP_OPS = 2_500
ARITHMETIC_OPS = 20_000
CALL_OPS = 6_000
CHASE_OPS = 12_000

LIVE_HEAP_ENTRIES = 512
CHASE_CELLS = 20_000


class _Cell:
    __slots__ = ("time", "seq", "link")

    def __init__(self, time: float, seq: int) -> None:
        self.time = time
        self.seq = seq
        self.link: "_Cell" = self

    def bump(self, amount: int) -> int:
        self.seq += amount
        return self.seq


class Kernel:
    """The fixed work, one slice at a time; state carries over."""

    def __init__(self) -> None:
        self._heap: list = []
        self._table: dict = {}
        self._state = 12345
        self._seq = 0
        self._ring = [_Cell(0.0, index) for index in range(256)]
        # one cycle through CHASE_CELLS cells in a scrambled order: a
        # pointer chase no prefetcher follows
        cells = [_Cell(0.0, index) for index in range(CHASE_CELLS)]
        order = sorted(range(CHASE_CELLS), key=lambda i: (i * 40_503) % CHASE_CELLS)
        for here, there in zip(order, order[1:] + order[:1]):
            cells[here].link = cells[there]
        self._cursor = cells[0]

    def slice(self) -> None:
        state, seq = self._state, self._seq
        heap = self._heap
        for _ in range(HEAP_OPS):  # event-queue churn, allocation
            # LCG keys: deterministic, unsorted, no `random` import
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            key = state * 1e-9
            seq += 1
            heapq.heappush(heap, (key, seq, _Cell(key, seq)))
            if len(heap) > LIVE_HEAP_ENTRIES:
                heapq.heappop(heap)
        for _ in range(ARITHMETIC_OPS):  # interpreter dispatch, integers
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            seq += state & 7
        ring, table = self._ring, self._table
        for index in range(CALL_OPS):  # method calls, slots, dict stores
            cell = ring[index & 255]
            table[cell.bump(index) & 127] = cell
        cursor = self._cursor
        for _ in range(CHASE_OPS):  # cache misses
            cursor = cursor.link
        self._cursor = cursor
        self._state, self._seq = state, seq


class SpeedSampler:
    """Times kernel slices on an interval timer while a region runs.

    ``with sampler: work()`` — afterwards ``spent_s`` is the wall time
    the slices took (take it off the region's wall time) and
    ``mean_slice_s`` the machine-speed reading. Main thread only; the
    handler runs between bytecodes of whatever the region executes.
    """

    def __init__(self) -> None:
        self._kernel = Kernel()
        self._busy = False
        self.samples: List[float] = []

    def _tick(self, signum: int, frame: Any) -> None:
        if self._busy:  # a slice outlasted the interval
            return
        self._busy = True
        try:
            started = time.perf_counter()
            self._kernel.slice()
            self.samples.append(time.perf_counter() - started)
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a region shorter than one interval
            self._tick(signal.SIGALRM, None)

    @property
    def spent_s(self) -> float:
        return sum(self.samples)

    @property
    def mean_slice_s(self) -> float:
        return sum(self.samples) / len(self.samples)


def calibrated(raw_s: float, mean_slice_s: float) -> float:
    """``raw_s`` in seconds of the reference sandbox."""
    return raw_s * REF_SLICE_S / mean_slice_s


def calibrate(kernel: Kernel, slices: int = 30) -> float:
    """Mean slice time right now, from ``slices`` back-to-back slices."""
    started = time.perf_counter()
    for _ in range(slices):
        kernel.slice()
    return (time.perf_counter() - started) / slices
