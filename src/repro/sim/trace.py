"""Time-series recording for simulations.

The paper's figures need per-interval throughput samples (Fig. 3), power
samples (Fig. 2/4) and event counts (retransmissions, Fig. 8). Two small
primitives cover all of them:

* :class:`TimeSeries` — (time, value) samples with summary helpers.
* :class:`CounterSet` — named monotonic counters (packets sent, bytes
  acked, retransmissions, ...), the simulation analogue of ``netstat -s``,
  and :class:`Counted`, how a network or TCP object exposes its own.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import ClassVar, Dict, Iterator, List, Optional, Tuple


class TimeSeries:
    """An append-only series of (time, value) samples.

    Probe sinks allocate one per telemetry channel inside the event
    loop, so the class defines ``__slots__``.
    """

    __slots__ = ("name", "times", "values")

    def __init__(
        self,
        name: str = "",
        times: Optional[List[float]] = None,
        values: Optional[List[float]] = None,
    ) -> None:
        self.name = name
        # fresh lists are the mutable defaults; one series is built per
        # telemetry stream, not per event
        self.times: List[float] = [] if times is None else times
        self.values: List[float] = [] if values is None else values

    def __repr__(self) -> str:
        return (
            f"TimeSeries(name={self.name!r}, times={self.times!r}, "
            f"values={self.values!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (self.name, self.times, self.values) == (
            other.name,
            other.times,
            other.values,
        )

    __hash__ = None  # mutable, like the dataclass it replaced

    def record(self, time: float, value: float) -> None:
        """Append a sample. Times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"{self.name or 'series'}: time went backwards "
                f"({time} < {self.times[-1]})"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self.times, self.values))

    @property
    def last(self) -> float:
        """Most recent value (raises IndexError when empty)."""
        return self.values[-1]

    def mean(self) -> float:
        """Arithmetic mean of the sample values."""
        if not self.values:
            raise ValueError(f"{self.name or 'series'} is empty")
        return sum(self.values) / len(self.values)

    def window(self, start: float, end: float) -> "TimeSeries":
        """Samples with start <= time < end, as a new series."""
        lo = bisect_left(self.times, start)
        hi = bisect_left(self.times, end)
        return TimeSeries(
            name=self.name, times=self.times[lo:hi], values=self.values[lo:hi]
        )

    def integrate(self) -> float:
        """Trapezoidal integral of value over time.

        Integrating a power series (watts) over time yields energy
        (joules) — the core operation of the RAPL emulation.
        """
        total = 0.0
        for i in range(1, len(self.times)):
            dt = self.times[i] - self.times[i - 1]
            total += 0.5 * (self.values[i] + self.values[i - 1]) * dt
        return total

    def value_at(self, time: float) -> float:
        """Most recent sample value at or before ``time`` (step semantics)."""
        idx = bisect_right(self.times, time) - 1
        if idx < 0:
            raise ValueError(f"no sample at or before t={time}")
        return self.values[idx]

    def resample(self, interval: float) -> "TimeSeries":
        """Average into fixed ``interval``-wide bins (used by Fig. 3)."""
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if not self.times:
            return TimeSeries(name=self.name)
        out = TimeSeries(name=self.name)
        start = self.times[0]
        end = self.times[-1]
        t = start
        while t < end or not len(out):
            chunk = self.window(t, t + interval)
            if len(chunk):
                out.record(t, chunk.mean())
            t += interval
        return out


class CounterSet(Dict[str, float]):
    """Named monotonic counters: a dict in which a name never
    incremented reads 0.0.

    A rare event is counted by name, ``counters["drops"] += 1.0`` (an
    item update, no Python frame); :meth:`add` is the checked form. The
    counters a packet moves on every hop are not kept here but in
    integer fields of their owner, which :class:`Counted` copies in
    before the set is read.
    """

    __slots__ = ()

    def __missing__(self, name: str) -> float:
        return 0.0

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment ``name`` by ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self[name] += amount

    def get(self, name: str) -> float:  # type: ignore[override]
        """Current value of ``name`` (0 if never incremented)."""
        return self[name]

    def snapshot(self) -> Dict[str, float]:
        """A copy of all counters."""
        return dict(self)


class Counted:
    """An owner whose per-packet counters are ``int`` fields.

    A field increment is an attribute store CPython specialises; a
    by-name one is an item update on a dict subclass, about three times
    the cost. So the counters a packet moves (:attr:`COUNTER_FIELDS`, set
    to 0 in the owner's ``__init__``) are fields, the rare ones are
    by-name increments of ``_counters``, and :attr:`counters` reads both.
    """

    COUNTER_FIELDS: ClassVar[Tuple[str, ...]] = ()
    _counters: CounterSet

    @property
    def counters(self) -> CounterSet:
        """The owner's one :class:`CounterSet`, each non-zero field
        written in as a float first: what by-name increments would hold
        (a float sum of integers is exact below 2**53)."""
        counters = self._counters
        for name in self.COUNTER_FIELDS:
            value = getattr(self, name)
            if value:
                counters[name] = float(value)
        return counters
