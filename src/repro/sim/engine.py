"""Discrete-event simulation kernel.

A :class:`Simulator` owns a priority queue of timestamped events and a
virtual clock. Everything in the library — link transmissions, TCP
timers, energy sampling, application logic — runs as callbacks scheduled
on one simulator instance.

Design notes
------------
* The heap holds ``(time, placed_at, seq, callback, args)`` tuples, so
  ``heapq`` orders entries by comparing floats and ints in C and never
  calls back into Python. ``placed_at`` is the virtual instant the entry
  took its place in line among those due at ``time``, and ``seq`` counts
  pushes. An ordinary push is placed at ``now``; both ``now`` and ``seq``
  only grow, so ``(placed_at, seq)`` orders ordinary pushes exactly as
  ``seq`` alone does: events at the same timestamp run in FIFO scheduling
  order (runs are deterministic) and a comparison never reaches the
  callback.
* Every push enters :meth:`Simulator.push`, which validates the key,
  draws one sequence number and allocates nothing but the tuple. A push
  nobody can cancel — a link delivery, a link finish, a NIC drain: 96–99 %
  of them — is that and nothing more. A push that may be cancelled — a
  timer, a pacing wake-up, a session start — goes through
  :meth:`Simulator.schedule_at`, which builds an :class:`Event` and
  pushes ``(time, placed_at, seq, event, None)``: a cancel needs a handle
  to mark, and the handle a back-reference that keeps the dead-entry
  tally exact. No entry is ever mutated. Every other entry's ``args`` is
  a tuple, so ``args is None`` alone tells the dispatch loop which shape
  it popped.
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
  and pushing). The simulator keeps an exact tally of dead
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
  assigns it. A push costs one frame, :meth:`Simulator.push`, and a
  cancellable one two more, :meth:`Simulator.schedule_at` and
  ``Event.__init__``. Per-packet code that never cancels calls ``push``;
  :meth:`Simulator.schedule` is the checked convenience on top of
  ``schedule_at`` for everything else.
* :meth:`Simulator.step` is ``run(max_events=1)`` for tests and
  single-stepping by hand; nothing in the library drives a simulation
  with it.
* The kernel knows nothing about networking or energy; those layers only
  use :meth:`Simulator.push` / :meth:`Simulator.schedule_at` /
  :attr:`Simulator.now`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.probe import NULL_PROBE_SINK, ProbeSink

Callback = Callable[..., None]

#: ``(time, placed_at, seq, callback, args)``, or
#: ``(time, placed_at, seq, event, None)`` for a cancellable push; see
#: the design notes
HeapEntry = Tuple[float, float, int, Any, Optional[tuple]]


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
        #: events executed so far (for diagnostics); :meth:`run` tallies
        #: in a local and stores the total when it returns
        self.events_executed = 0
        self._queue: List[HeapEntry] = []
        #: the entry being dispatched (the last one dispatched, between
        #: events), or None when every entry due at or before ``now`` has
        #: run. A fused stage compares the place of an event it never
        #: pushed against it: "would that event have run by now?"
        self.current: Optional[HeapEntry] = None
        #: pushes so far; each draws one
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
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule {delay:.9f}s in the past")
        return self.schedule_at(self.now + delay, callback, *args)

    def push(
        self,
        time: float,
        placed_at: float,
        seq: Optional[int],
        callback: Any,
        args: Optional[tuple],
    ) -> int:
        """Push ``callback(*args)`` due at absolute virtual time ``time``
        and return the entry's ``seq``; nothing can cancel it.

        The one routine every push enters. ``placed_at`` is the instant
        the entry takes its place in line among those due at ``time``:
        ``now`` for an ordinary push, the instant the event this push
        replaces would have made it for a fused stage (see the design
        notes). ``seq`` re-uses a place reserved by an earlier push, or is
        None for the number this push draws; either way the push draws
        one. ``args`` is a tuple: None marks the entry
        :meth:`schedule_at` pushes, with its :class:`Event` as
        ``callback``.
        """
        now = self.now
        if not time >= now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at t={time:.9f} before now={now:.9f}"
            )
        if not placed_at <= time:
            raise SimulationError(
                f"an entry due at t={time:.9f} cannot take its place "
                f"at t={placed_at:.9f}"
            )
        own = self._seq
        self._seq = own + 1
        if seq is None:
            seq = own
        heappush(self._queue, (time, placed_at, seq, callback, args))
        return seq

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

        ``placed_at`` (default ``now``) and ``seq`` are :meth:`push`'s.
        """
        event = Event(time, -1, callback, args, False, self)  # seq: the push's
        event.seq = self.push(
            time, self.now if placed_at is None else placed_at, seq, event, None
        )
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
        pop = heappop
        try:
            while queue and executed < budget:
                time, _, _, callback, args = queue[0]
                if args is None:
                    # an Event: it may be dead, and it is consumed
                    event = callback
                    if event.cancelled:
                        pop(queue)
                        event.sim = None
                        self._dead_in_queue -= 1
                        continue
                    if time > horizon:
                        break
                    # drop the heap back-reference *before* marking
                    # cancelled so a later cancel() neither double-counts
                    # nor touches the tally
                    event.sim = None
                    event.cancelled = True
                    callback = event.callback
                    args = event.args
                elif time > horizon:
                    break
                self.current = pop(queue)
                self.now = time
                executed += 1
                callback(*args)
                if self._stop_requested:
                    break
            out_of_budget = bool(queue) and executed >= budget
            if until is not None and not (self._stop_requested or out_of_budget):
                self.now = max(self.now, until)
                self.current = None
        finally:
            self.events_executed = executed
            self._running = False
        return self.now

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the queue is empty."""
        queue = self._queue
        while queue and queue[0][4] is None and queue[0][3].cancelled:
            heappop(queue)[3].sim = None
            self._dead_in_queue -= 1
        return queue[0][0] if queue else None
