"""Time-series recording for simulations.

The paper's figures need per-interval throughput samples (Fig. 3), power
samples (Fig. 2/4) and event counts (retransmissions, Fig. 8). Two small
primitives cover all of them:

* :class:`TimeSeries` — (time, value) samples, windowed by time.
* :class:`CounterSet` — named monotonic counters (packets sent, bytes
  acked, retransmissions, ...), the simulation analogue of ``netstat -s``,
  and :class:`Counted`, how a network or TCP object exposes its own.
"""

from __future__ import annotations

from bisect import bisect_left
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
        """Append a sample. Times must be non-decreasing and not NaN."""
        last = self.times[-1] if self.times else float("-inf")
        if not time >= last:  # written so that NaN fails too
            raise ValueError(
                f"{self.name or 'series'}: time {time} is NaN or before "
                f"the last sample's {last}"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self.times, self.values))

    def window(self, start: float, end: float) -> "TimeSeries":
        """Samples with start <= time < end, as a new series."""
        lo = bisect_left(self.times, start)
        hi = bisect_left(self.times, end)
        return TimeSeries(
            name=self.name, times=self.times[lo:hi], values=self.values[lo:hi]
        )


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
    A count another owner already keeps is not kept twice: its name in
    :attr:`COUNTER_FIELDS` is a property reading that owner's field.
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
