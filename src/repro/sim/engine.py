"""Discrete-event simulation kernel.

A :class:`Simulator` owns two priority queues of timestamped events and
a virtual clock. Everything in the library — link transmissions, TCP
timers, energy sampling, application logic — runs as callbacks scheduled
on one simulator instance.

Design notes
------------
* Every entry is a tuple that starts with its key ``(time, placed_at,
  seq)``, so ``heapq`` orders entries by comparing floats and ints in C
  and never calls back into Python. ``placed_at`` is the virtual instant
  the entry took its place in line among those due at ``time``, and
  ``seq`` counts pushes. An ordinary push is placed at ``now``; both
  ``now`` and ``seq`` only grow, so ``(placed_at, seq)`` orders ordinary
  pushes exactly as ``seq`` alone does: events at the same timestamp run
  in FIFO scheduling order (runs are deterministic) and a comparison
  never reaches the callback.
* There are two heaps, and the kind of entry decides which one it joins.
  ``_queue`` holds the pushes nobody can cancel — link deliveries, link
  finishes, lost-frame finishes and NIC drains: 96–99 % of them — as
  ``(time, placed_at, seq, callback, arg)``, and the loop enters one by
  the plain call ``callback(arg)``: exactly one argument (the packet of
  a delivery; ``None`` for an :class:`~repro.net.link.Interface` finish
  or a :class:`~repro.net.nic.Nic` drain, bound methods that ignore
  it), so no push allocates an args tuple and CPython inlines the call.
  ``_events`` holds what :meth:`Simulator.schedule_at` makes — a timer,
  a pacing wake-up, a session start — as ``(time, placed_at, seq,
  event)``: a cancel needs a handle to mark, and the handle a
  back-reference that keeps the dead-entry tally exact. No entry is
  ever mutated, and the heap an entry came from says which shape it is.
* Why no timer shares the packet heap: timers outnumber the packets in
  flight on a many-flow fabric. :class:`~repro.sim.timer.Timer` leaves a
  stopped timer's entry in place (one no-op event beats a cancel per
  ACK), so a finished flow's RTO and delayed-ACK entries, the dead
  entries cancels leave, pending session starts and sampler ticks sit in
  the heap until they come due — on the 400-session fabric about 500 of
  the 560 entries a single heap held at each pop. Every packet push and
  pop paid ``log`` of that; in a heap of their own, packets pay ``log``
  of the packets in flight.
* :meth:`Simulator.run` merges the two heads: it dispatches the one with
  the smaller key, comparing head times (one float compare per event)
  and whole entries only when the times tie. ``seq`` makes keys unique,
  so the order is exactly that of one heap holding both kinds, and so is
  every run. Each heap ends in a sentinel entry due at ``inf`` that
  never leaves it (the packet heap's sorts first), so neither head is
  ever missing: the horizon test ends the run when both heads are
  sentinels. That is why a due time must be finite: :meth:`push` and
  :meth:`schedule_at` refuse ``inf`` and NaN, and the packet path's
  keys are sums of finite fields its constructors check.
* A push checks its key, draws one sequence number and allocates
  nothing but the tuple. The packet path writes :meth:`Simulator.push`
  out in place (an :class:`~repro.net.link.Interface` delivery, finish
  arm or lost-frame finish, a :class:`~repro.net.nic.Nic` drain): two
  NaN-safe checks (raising :meth:`Simulator.refusal`), one ``_seq``
  drawn, one ``heappush`` onto ``_queue``; tests call :meth:`push`.
* ``placed_at`` exists for *fused stages*: a component that used to run
  an event at instant ``F`` only to push another one may push that other
  one earlier, with ``placed_at=F``, and the entry sorts after
  everything placed before ``F`` and before everything placed after it —
  where the push at ``F`` would have put it. The link hop is the one
  user (:mod:`repro.net.link`): it pushes a delivery when serialisation
  starts, placed at the instant serialisation finishes. The finish
  itself is pushed only if something needs it, as late as the instant
  it is due, with the place it would have had (``placed_at`` = the
  start, ``seq`` = the number the start drew); until then "has it run
  yet?" is a comparison of that place with :attr:`Simulator.current`,
  the entry being dispatched. Every push, placed or not, draws one
  sequence number.
* What the key does not decide: against entries placed *at* ``F`` by
  others — pushed during instant ``F``, or finishes of transmissions
  started during it — and due at the same time, a delivery placed at
  ``F`` always goes first, because its ``seq`` was drawn before ``F``.
  The finish event pushed it after whatever earlier events of instant
  ``F`` had pushed. It takes two float coincidences (another event at
  exactly the finish instant, pushing for exactly the delivery's
  instant) and then an effect of the order; a tests-only census
  (``tests/net/test_interface_oracle.py``) counts the coincidence,
  ``tests/test_work_counters.py`` asserts it is 0 on the four
  work-counter shapes, and it is 0 on the four bench workloads.
* Cancellation is O(1): :meth:`Event.cancel` marks the event dead and the
  main loop skips it (only an :class:`Event` entry can be dead). This is
  the standard "lazy deletion" heap idiom and avoids O(n) heap surgery
  (TCP's constantly re-armed timers rarely get this far:
  :class:`repro.sim.timer.Timer` moves a deadline instead of cancelling
  and pushing). A dead entry is popped when it would have been the head
  of one merged heap. The simulator keeps an exact tally of dead
  entries so :attr:`Simulator.pending_events` reports *live* events even
  though cancelled ones still occupy heap slots until popped
  (:attr:`Simulator.queued_events` exposes the raw heap size).
* :meth:`Simulator.run` is the one dispatch loop: merge, pop, callback,
  written inline so an event costs no Python call beyond its own
  callback, and no tally (:attr:`Simulator.events_executed` is derived:
  every entry draws one ``seq`` when pushed and leaves a heap only by a
  pop). A run ends when both heaps drain, at ``until``, after
  ``max_events`` (counted only when given, behind one ``None`` test per
  event), or when a callback calls :meth:`Simulator.stop` — which is how
  a driver that *counts* completions ends the run on the event that
  finished the last flow, with the clock left at that event.
* The clock, :attr:`Simulator.now`, is a plain attribute the loop
  writes: every callback reads it, most several times, so a property
  would cost more frames than the dispatch itself. Only the kernel
  assigns it. A push written in place costs no frame, one through
  :meth:`Simulator.push` one, and a cancellable one two,
  :meth:`Simulator.schedule_at` and ``Event.__init__``.
* :meth:`Simulator.step` is ``run(max_events=1)`` for tests and
  single-stepping by hand; nothing in the library drives a simulation
  with it.
* The kernel knows nothing about networking or energy; those layers only
  use :meth:`Simulator.schedule_at` / :attr:`Simulator.now` (and the
  in-place pushes ``_seq``/``_queue``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from sys import float_info
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.probe import NULL_PROBE_SINK, ProbeSink

Callback = Callable[..., None]

#: ``(time, placed_at, seq, callback, arg)``: a push nobody can cancel,
#: entered as ``callback(arg)``; see the design notes
PacketEntry = Tuple[float, float, int, Any, Any]
#: ``(time, placed_at, seq, event)``: what :meth:`Simulator.schedule_at`
#: pushes (an :class:`Event`; None in the sentinel)
EventEntry = Tuple[float, float, int, Any]

_INF = float("inf")
#: the last entry of each heap, which no push can tie (a due time is
#: finite); the packet heap's sorts before the event heap's
_QUEUE_END: PacketEntry = (_INF, _INF, -1, None, None)
_EVENTS_END: EventEntry = (_INF, _INF, 0, None)
#: a horizon every finite due time is within and a sentinel is not
_NO_HORIZON = float_info.max


class Event:
    """A scheduled callback that can be cancelled.

    The heap orders events by the ``(time, placed_at, seq)`` prefix of
    their entry tuple; the event itself is never compared. One Event is
    allocated per :meth:`Simulator.schedule_at` — every timer, pacing
    wake-up and session start — so the class uses ``__slots__``.
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
        #: pushes nobody can cancel, and the sentinel
        self._queue: List[PacketEntry] = [_QUEUE_END]
        #: what :meth:`schedule_at` pushes, and the sentinel
        self._events: List[EventEntry] = [_EVENTS_END]
        #: the entry being dispatched (the last one dispatched, between
        #: events), or None when every entry due at or before ``now`` has
        #: run. A fused stage compares the place of an event it never
        #: pushed against it: "would that event have run by now?"
        self.current: Optional[tuple] = None
        #: pushes so far; each draws one
        self._seq = 0
        self._running = False
        self._stop_requested = False
        #: cancelled-but-not-yet-popped heap entries (lazy deletion)
        self._dead_in_queue = 0
        #: cancelled entries popped so far (by :meth:`run` or :meth:`peek_time`)
        self._dead_popped = 0
        #: where instrumented components (TCP senders, queues, CPU
        #: packages) send telemetry samples; the shared no-op by
        #: default, swapped by the harness when telemetry is collected.
        #: Write-only from the simulation's perspective — nothing here
        #: ever reads it back.
        self.probe_sink: ProbeSink = NULL_PROBE_SINK

    # -- queue state --------------------------------------------------

    @property
    def events_executed(self) -> int:
        """Callbacks dispatched so far (for diagnostics). Derived: every entry
        draws one ``seq`` when pushed and leaves a heap only by a pop."""
        return self._seq - self.queued_events - self._dead_popped

    @property
    def pending_events(self) -> int:
        """Number of *live* events still queued.

        Cancelled events stay in the heap until popped (lazy deletion)
        but are excluded here, so this is the number of callbacks that
        will actually fire — the quantity 10k-flow diagnostics care
        about. See :attr:`queued_events` for the raw heap size.
        """
        return self.queued_events - self._dead_in_queue

    @property
    def queued_events(self) -> int:
        """Raw size of both heaps, cancelled entries included and the
        sentinels not (memory diagnostics)."""
        return len(self._queue) + len(self._events) - 2

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
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule {delay:.9f}s in the past")
        return self.schedule_at(self.now + delay, callback, *args)

    def push(
        self,
        time: float,
        placed_at: float,
        seq: Optional[int],
        callback: Any,
        arg: Any,
    ) -> int:
        """Push ``callback(arg)`` due at absolute virtual time ``time``
        onto the packet heap and return the entry's ``seq``; nothing can
        cancel it.

        What the packet path writes out in place. ``placed_at`` is the
        instant the entry takes its place in line among those due at
        ``time``: ``now`` for an ordinary push, the instant the event
        this push replaces would have made it for a fused stage (see the
        design notes). ``seq`` re-uses a place reserved by an earlier
        push, or is None for the number this push draws; either way the
        push draws one. ``arg`` is the callback's one argument.
        """
        # NaN fails too, and so does inf: the sentinels own it
        if not self.now <= time < _INF or not placed_at <= time:
            raise self.refusal(time, placed_at)
        own = self._seq
        self._seq = own + 1
        if seq is None:
            seq = own
        heappush(self._queue, (time, placed_at, seq, callback, arg))
        return seq

    def refusal(self, time: float, placed_at: float) -> SimulationError:
        """The error a push of key ``(time, placed_at)`` raises."""
        if not time >= self.now:
            return SimulationError(
                f"cannot schedule at t={time:.9f} before now={self.now:.9f}"
            )
        if not time < _INF:
            return SimulationError(
                f"cannot schedule at t={time}: a due time must be finite"
            )
        return SimulationError(
            f"an entry due at t={time:.9f} cannot take its place "
            f"at t={placed_at:.9f}"
        )

    def schedule_at(
        self,
        time: float,
        callback: Callback,
        *args: Any,
        placed_at: Optional[float] = None,
        seq: Optional[int] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``
        and return the :class:`Event` that cancels it.

        ``placed_at`` (default ``now``) and ``seq`` are :meth:`push`'s,
        and so are the checks; the entry joins the event heap.
        """
        if placed_at is None:
            placed_at = self.now
        if not self.now <= time < _INF or not placed_at <= time:
            raise self.refusal(time, placed_at)
        own = self._seq
        self._seq = own + 1
        if seq is None:
            seq = own
        event = Event(time, seq, callback, args, False, self)
        heappush(self._events, (time, placed_at, seq, event))
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
        if until is not None and until != until:
            raise SimulationError(f"cannot run until t={until}")
        self._running = True
        self._stop_requested = False
        # the sentinels lie beyond any horizon, so a drained pair of
        # heaps ends the run at the horizon test
        horizon = _NO_HORIZON if until is None else min(until, _NO_HORIZON)
        left = max_events  # dispatches still allowed; None: no limit
        if left is None or left > 0:
            queue = self._queue
            events = self._events
        else:  # a spent budget dispatches nothing, and pops no dead entry
            queue = [_QUEUE_END]
            events = [_EVENTS_END]
        pop = heappop
        try:
            while True:
                time, _, _, callback, arg = queue[0]
                if time < events[0][0] or (
                    time == events[0][0] and queue[0] < events[0]
                ):
                    if time > horizon:
                        break
                    self.current = pop(queue)
                    self.now = time
                    callback(arg)
                else:
                    time, _, _, event = events[0]
                    if event.cancelled:
                        pop(events)
                        event.sim = None
                        self._dead_in_queue -= 1
                        self._dead_popped += 1
                        continue
                    if time > horizon:
                        break
                    # drop the heap back-reference *before* marking
                    # cancelled so a later cancel() neither double-counts
                    # nor touches the tally
                    event.sim = None
                    event.cancelled = True
                    self.current = pop(events)
                    self.now = time
                    event.callback(*event.args)
                if self._stop_requested:
                    break
                if left is not None:
                    left -= 1
                    if left <= 0:
                        break
            out_of_budget = (
                left is not None and left <= 0 and self.queued_events > 0
            )
            if until is not None and not (self._stop_requested or out_of_budget):
                self.now = max(self.now, until)
                self.current = None
        finally:
            self._running = False
        return self.now

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the queue is empty."""
        queue = self._queue
        events = self._events
        # pop what the run would: a dead entry at the head of the merge
        while events[0] < queue[0] and events[0][3].cancelled:
            heappop(events)[3].sim = None
            self._dead_in_queue -= 1
            self._dead_popped += 1
        time = min(queue[0][0], events[0][0])
        return None if time == _INF else time
