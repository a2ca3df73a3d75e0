"""Discrete-event simulation kernel.

A :class:`Simulator` owns a priority queue of timestamped events and a
virtual clock. Everything in the library — link transmissions, TCP
timers, energy sampling, application logic — runs as callbacks scheduled
on one simulator instance.

Design notes
------------
* The heap holds ``(time, seq, event)`` tuples, so ``heapq`` orders
  entries by comparing floats and ints in C and never calls back into
  Python. ``seq`` is strictly increasing, which makes events at the same
  timestamp run in FIFO scheduling order (runs are deterministic) and
  means a comparison never reaches the :class:`Event` itself.
* Cancellation is O(1): :meth:`Event.cancel` marks the event dead and the
  main loop skips it. This is the standard "lazy deletion" heap idiom and
  avoids O(n) heap surgery (TCP's constantly re-armed timers rarely get
  this far: :class:`repro.sim.timer.Timer` moves a deadline instead of
  cancelling and pushing). The simulator keeps an exact tally of dead
  entries so :attr:`Simulator.pending_events` reports *live* events even
  though cancelled ones still occupy heap slots until popped
  (:attr:`Simulator.queued_events` exposes the raw heap size).
* :meth:`Simulator.run` is the one dispatch loop: peek, pop, tally,
  callback, written inline so an event costs no Python call beyond its
  own callback. A run ends when the queue drains, at ``until``, after
  ``max_events``, or when a callback calls :meth:`Simulator.stop` — which
  is how a driver that *counts* completions ends the run on the event
  that finished the last flow, with the clock left at that event.
* The clock, :attr:`Simulator.now`, is a plain attribute the loop
  writes: every callback reads it, most several times, so a property
  would cost more frames than the dispatch itself. Only the kernel
  assigns it. A push costs two frames, :meth:`Simulator.schedule_at`
  and ``Event.__init__``; per-packet code calls
  ``schedule_at(sim.now + delay, ...)`` and :meth:`Simulator.schedule`
  is the checked convenience on top for everything else.
* :meth:`Simulator.step` is ``run(max_events=1)`` for tests and
  single-stepping by hand; nothing in the library drives a simulation
  with it.
* The kernel knows nothing about networking or energy; those layers only
  use :meth:`Simulator.schedule` / :attr:`Simulator.now`.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.probe import NULL_PROBE_SINK, ProbeSink
from repro.sim.profile import (
    EVENTS_DISPATCHED,
    NULL_PROFILER,
    HotPathProfiler,
    dispatch_key,
)

Callback = Callable[..., None]


class Event:
    """A single scheduled callback.

    The heap orders events by the ``(time, seq)`` prefix of their entry
    tuple; the event itself is never compared. One Event is allocated
    per scheduled callback — every simulated packet, timer and sample —
    so the class uses ``__slots__``.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callback,
        args: tuple = (),
        cancelled: bool = False,
        sim: "Optional[Simulator]" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = cancelled
        #: back-reference while the event sits in a simulator's heap, so
        #: cancel() can keep the live-event tally exact; cleared when the
        #: event is popped (consumed or compacted).
        self.sim = sim

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, seq={self.seq!r}, "
            f"callback={self.callback!r}, args={self.args!r}, "
            f"cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Mark this event dead; the simulator will skip it."""
        if not self.cancelled:
            self.cancelled = True
            if self.sim is not None:
                self.sim._note_cancelled()

    @property
    def alive(self) -> bool:
        """Whether the event is still pending (not cancelled or executed)."""
        return not self.cancelled


class Simulator:
    """Event-driven virtual-time simulator.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fires at t=1.5s"))
        sim.run()

    The clock starts at 0.0 and only advances when :meth:`run` (or
    :meth:`step`) executes events.
    """

    def __init__(self) -> None:
        #: current virtual time in seconds; written by :meth:`run` only
        self.now = 0.0
        #: events executed so far (for diagnostics); :meth:`run` tallies
        #: in a local and stores the total when it returns
        self.events_executed = 0
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._running = False
        self._stop_requested = False
        #: cancelled-but-not-yet-popped heap entries (lazy deletion)
        self._dead_in_queue = 0
        #: where instrumented components (TCP senders, queues, CPU
        #: packages) send telemetry samples; the shared no-op by
        #: default, swapped by the harness when telemetry is collected.
        #: Write-only from the simulation's perspective — nothing here
        #: ever reads it back.
        self.probe_sink: ProbeSink = NULL_PROBE_SINK
        #: hot-path profiler, same one-way contract as the probe sink:
        #: the shared no-op by default, swapped by the harness when a
        #: profile is collected. Dispatch reports only aggregate
        #: per-event-type counts and component enter/exit marks.
        self.profiler: HotPathProfiler = NULL_PROFILER

    # -- queue state --------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Number of *live* events still queued.

        Cancelled events stay in the heap until popped (lazy deletion)
        but are excluded here, so this is the number of callbacks that
        will actually fire — the quantity 10k-flow diagnostics care
        about. See :attr:`queued_events` for the raw heap size.
        """
        return len(self._queue) - self._dead_in_queue

    @property
    def queued_events(self) -> int:
        """Raw heap size, cancelled entries included (memory diagnostics)."""
        return len(self._queue)

    @property
    def dead_in_queue(self) -> int:
        """Cancelled-but-not-yet-popped heap entries (the lazy-deletion
        tally). ``queued_events - pending_events`` by construction; a
        large value means the heap is bloated with dead timers."""
        return self._dead_in_queue

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` while the event is heap-resident."""
        self._dead_in_queue += 1

    # -- scheduling ---------------------------------------------------

    def schedule(self, delay: float, callback: Callback, *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.9f}s in the past")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callback, *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time:.9f} before now={self.now:.9f}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args, False, self)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    # -- execution ----------------------------------------------------

    def step(self) -> bool:
        """Execute the next live event. Returns False if the queue is empty."""
        before = self.events_executed
        self.run(max_events=1)
        return self.events_executed > before

    def stop(self) -> None:
        """End the current :meth:`run` once the executing event returns.

        The clock stays at that event, even under ``until``. Outside a
        run this does nothing: every run starts with the request cleared.
        """
        self._stop_requested = True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run events until the queue drains, ``until`` is reached,
        ``max_events`` have executed, or a callback calls :meth:`stop`.

        Returns the virtual time at which execution stopped. When ``until``
        is given and the run ended at the horizon or on a drained queue,
        the clock is advanced to exactly ``until`` even if the last event
        fired earlier (matching how a wall-clock measurement window
        behaves on a real testbed); no event later than ``until`` is
        dispatched. A run ended by :meth:`stop`, or by ``max_events``
        with entries still queued, leaves the clock at its last event.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stop_requested = False
        horizon = float("inf") if until is None else until
        executed = self.events_executed
        budget = float("inf") if max_events is None else executed + max_events
        queue = self._queue
        pop = heapq.heappop
        # the profiler is attached before the run, never during it
        profiler = self.profiler
        profiling = profiler.enabled
        try:
            while queue and executed < budget:
                time, _, event = queue[0]
                if event.cancelled:
                    pop(queue)
                    event.sim = None
                    self._dead_in_queue -= 1
                    continue
                if time > horizon:
                    break
                pop(queue)
                self.now = time
                # consumed: drop the heap back-reference *before* marking
                # cancelled so a later cancel() neither double-counts nor
                # touches the tally
                event.sim = None
                event.cancelled = True
                executed += 1
                if profiling:
                    key = dispatch_key(event.callback)
                    profiler.count(EVENTS_DISPATCHED)
                    profiler.enter(key)
                    try:
                        event.callback(*event.args)
                    finally:
                        profiler.exit(key)
                else:
                    event.callback(*event.args)
                if self._stop_requested:
                    break
            out_of_budget = bool(queue) and executed >= budget
            if until is not None and not (self._stop_requested or out_of_budget):
                self.now = max(self.now, until)
        finally:
            self.events_executed = executed
            self._running = False
        return self.now

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the queue is empty."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)[2].sim = None
            self._dead_in_queue -= 1
        return queue[0][0] if queue else None
