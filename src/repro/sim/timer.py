"""Restartable one-shot timers on top of the event kernel.

TCP needs timers that are constantly re-armed (retransmission timeout),
stopped (when the last outstanding segment is acknowledged) and queried
("is the RTO pending?"). A retransmission timer is pushed out by every
ACK and a delayed-ACK timer is stopped by every second segment, so
:class:`Timer` does not touch the heap for either: it keeps a *deadline*
and at most one live heap entry that is never later than the deadline.

* :meth:`Timer.start` only moves the deadline; it pushes an entry when
  there is none, or (after cancelling the old one) when the new deadline
  is earlier than the entry.
* :meth:`Timer.stop` only clears the deadline. The entry stays behind
  and does nothing when it fires — a stopped timer costs one no-op
  event, not a cancel plus a dead heap slot per ACK.
* An entry that fires before the deadline re-pushes itself at the
  deadline; one that fires at the deadline runs the callback.

The callback therefore runs at the same virtual time as under
cancel-and-reschedule; only the number of heap operations differs.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator


class Timer:
    """A one-shot timer that can be (re)started and stopped.

    The callback fires at most once per :meth:`start`, at the deadline of
    the *last* start — exactly the semantics of a TCP retransmission
    timer being pushed out by each new ACK.
    """

    def __init__(self, sim: Simulator, callback: Callable[..., None], *args: Any):
        self._sim = sim
        self._callback = callback
        self._args = args
        #: the deadline: absolute virtual time the callback is due, None
        #: while unarmed. Only the timer writes it; per-packet code tests
        #: ``timer.expiry is None`` rather than pay a frame for `pending`.
        self.expiry: Optional[float] = None
        #: the one heap entry, which never lies later than the deadline
        self._event: Optional[Event] = None

    @property
    def pending(self) -> bool:
        """Whether the timer is armed and has not yet fired."""
        return self.expiry is not None

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN, before anything changes
            raise SimulationError(f"timer delay must be >= 0, got {delay}")
        deadline = self._sim.now + delay
        self.expiry = deadline
        event = self._event
        if event is not None:
            if event.time <= deadline:
                return  # the entry wakes us early and re-pushes itself
            event.cancel()
        self._event = self._sim.schedule_at(deadline, self._wake)

    def stop(self) -> None:
        """Disarm the timer if armed; a no-op otherwise."""
        self.expiry = None

    def _wake(self) -> None:
        self._event = None
        deadline = self.expiry
        if deadline is None:
            return
        if deadline > self._sim.now:
            self._event = self._sim.schedule_at(deadline, self._wake)
            return
        self.expiry = None
        self._callback(*self._args)


class PeriodicTimer:
    """A timer that fires every ``interval`` seconds until stopped.

    Used by the energy meter's sampling loop and by paced senders.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[..., None],
        *args: Any,
    ):
        if not interval > 0:  # also rejects NaN
            raise SimulationError(f"interval must be > 0, got {interval}")
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._args = args
        self._event: Optional[Event] = None
        self._running = False

    @property
    def running(self) -> bool:
        """Whether the periodic timer is active."""
        return self._running

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Start ticking. First tick after ``initial_delay`` (default: one
        full interval)."""
        delay = self.interval if initial_delay is None else initial_delay
        if not delay >= 0:  # also rejects NaN, before anything changes
            raise SimulationError(f"timer delay must be >= 0, got {delay}")
        self.stop()
        self._running = True
        self._event = self._sim.schedule(delay, self._tick)

    def stop(self) -> None:
        """Stop ticking."""
        self._running = False
        if self._event is not None and self._event.alive:
            self._event.cancel()
        self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        self._callback(*self._args)
        if self._running:  # the callback may have stopped us
            self._event = self._sim.schedule(self.interval, self._tick)
