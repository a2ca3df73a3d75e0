"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_and_run_advances_clock(self, sim):
        fired = []
        sim.schedule(1.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.5]
        assert sim.now == 1.5

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fifo(self, sim):
        order = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_schedule_in_past_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.001, lambda: None)

    def test_schedule_at_before_now_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    @pytest.mark.parametrize("method", ["schedule", "schedule_at"])
    def test_nan_time_rejected(self, sim, method):
        # NaN compares false with everything: `time < now` let it in,
        # the callback ran last and run() returned nan as the clock
        with pytest.raises(SimulationError):
            getattr(sim, method)(float("nan"), lambda: None)
        assert sim.pending_events == 0

    @pytest.mark.parametrize("method", ["schedule", "schedule_at"])
    def test_infinite_time_rejected(self, sim, method):
        # inf passed every check: the callback ran at t=inf and the clock
        # stayed there, so nothing could be scheduled after it
        fired = []
        with pytest.raises(SimulationError, match="inf"):
            getattr(sim, method)(float("inf"), fired.append, 1)
        assert sim.pending_events == 0 and sim._seq == 0
        assert sim.run() == 0.0 and fired == []

    def test_callback_args_passed(self, sim):
        got = []
        sim.schedule(0.1, lambda a, b: got.append((a, b)), 1, "x")
        sim.run()
        assert got == [(1, "x")]

    def test_events_scheduled_during_run_execute(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(1.0, lambda: order.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_alive_reflects_state(self, sim):
        event = sim.schedule(1.0, lambda: None)
        assert event.alive
        event.cancel()
        assert not event.alive

    def test_executed_event_not_alive(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        assert not event.alive


class TestRunBounds:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.schedule(5.0, lambda: fired.append("late"))
        sim.run(until=2.0)
        assert fired == ["early"]
        assert sim.now == 2.0  # clock advanced to the window edge

    def test_run_until_then_resume(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append("late"))
        sim.run(until=2.0)
        sim.run()
        assert fired == ["late"]

    def test_max_events_bound(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_nan_horizon_rejected(self, sim):
        # `time > nan` is false for every event: the run ignored the
        # horizon and ran to drain
        fired = []
        sim.schedule(1.0, fired.append, 1)
        with pytest.raises(SimulationError, match="nan"):
            sim.run(until=float("nan"))
        assert fired == [] and sim.now == 0.0
        assert sim.run(until=2.0) == 2.0 and fired == [1]

    def test_run_not_reentrant(self, sim):
        def recurse():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, recurse)
        sim.run()

    def test_events_executed_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_executed == 5


class TestPendingEventAccounting:
    """pending_events counts live events only; cancellations never inflate it.

    The heap uses lazy deletion, so cancelled events stay resident until
    popped — the old ``len(self._queue)`` overcounted them, which broke
    drain checks ("is anything still scheduled?") at fabric scale where
    TCP timers are cancelled by the thousand.
    """

    def test_cancel_decrements_pending_immediately(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert sim.pending_events == 5
        events[2].cancel()
        assert sim.pending_events == 4
        # ...while the dead entry genuinely still sits in the heap.
        assert sim.queued_events == 5

    def test_double_cancel_counts_once(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending_events == 0
        assert sim.queued_events == 1

    def test_pop_of_cancelled_event_rebalances_tally(self, sim):
        keep = []
        sim.schedule(1.0, lambda: keep.append("a"))
        sim.schedule(2.0, lambda: keep.append("b")).cancel()
        sim.run()
        assert keep == ["a"]
        assert sim.pending_events == 0
        assert sim.queued_events == 0

    def test_executed_events_do_not_count_as_cancelled(self, sim):
        # step() marks consumed events cancelled (so re-cancel is a
        # no-op); that must not drive the live count negative.
        for i in range(3):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.pending_events == 0
        extra = sim.schedule(10.0, lambda: None)
        assert sim.pending_events == 1
        extra.cancel()
        assert sim.pending_events == 0

    def test_cancel_after_execution_is_inert(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()  # late cancel of a consumed event
        assert sim.pending_events == 0
        assert sim.queued_events == 0

    def test_mass_cancellation_keeps_exact_count(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
        for event in events[::2]:
            event.cancel()
        assert sim.pending_events == 50
        sim.run()
        assert sim.pending_events == 0


class TestPlacedEntries:
    """``schedule_at(..., placed_at=, seq=)``: the kernel API of a fused
    stage, which pushes at one instant the entry that an event it no
    longer pushes would have pushed at a later one."""

    DUE = 10.0

    def push_at(self, sim, order, instant, tag, **placement):
        """At ``instant``, push ``tag`` due at :attr:`DUE`."""
        sim.schedule_at(
            instant,
            lambda: sim.schedule_at(self.DUE, order.append, tag, **placement),
        )

    def test_sorts_as_if_pushed_at_that_instant(self, sim):
        order = []
        self.push_at(sim, order, 1.0, "before-1")
        self.push_at(sim, order, 1.0, "placed", placed_at=5.0)
        self.push_at(sim, order, 3.0, "before-2")
        self.push_at(sim, order, 4.0, "placed-earlier", placed_at=4.5)
        self.push_at(sim, order, 7.0, "after-1")
        self.push_at(sim, order, 9.0, "after-2")
        sim.run()
        assert order == [
            "before-1", "before-2", "placed-earlier", "placed",
            "after-1", "after-2",
        ]

    def test_ordinary_pushes_keep_push_order(self, sim):
        # placed_at is `now` for them, and seq grows with `now`
        order = []
        for instant, tag in [(1.0, "a"), (1.0, "b"), (2.0, "c"), (2.0, "d")]:
            self.push_at(sim, order, instant, tag)
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_equal_placement_keeps_reservation_order(self, sim):
        order = []
        self.push_at(sim, order, 1.0, "first", placed_at=5.0)
        self.push_at(sim, order, 2.0, "second", placed_at=5.0)
        self.push_at(sim, order, 3.0, "third", placed_at=5.0)
        sim.run()
        assert order == ["first", "second", "third"]

    def test_seq_reuses_a_place_reserved_earlier(self, sim):
        order = []
        reserved = []

        def reserve():
            sim.schedule_at(self.DUE, order.append, "pushed-before")
            # due later, so only its number is borrowed, never its slot
            reserved.append(sim.schedule_at(20.0, order.append, "holder"))
            sim.schedule_at(self.DUE, order.append, "pushed-after")

        def materialise():
            event = sim.schedule_at(
                self.DUE, order.append, "late",
                placed_at=1.0, seq=reserved[0].seq,
            )
            assert event.seq == reserved[0].seq

        sim.schedule_at(1.0, reserve)
        sim.schedule_at(6.0, materialise)
        sim.run()
        assert order == ["pushed-before", "late", "pushed-after", "holder"]

    def test_every_push_draws_one_sequence_number(self, sim):
        assert sim._seq == 0
        first = sim.schedule_at(1.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None, placed_at=1.5)
        sim.schedule_at(2.0, lambda: None, placed_at=0.0, seq=first.seq)
        assert sim._seq == sim.queued_events == 4

    def test_place_later_than_due_time_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None, placed_at=2.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None, placed_at=float("nan"))

    def test_current_is_the_entry_being_dispatched(self, sim):
        seen = []
        event = sim.schedule_at(1.0, lambda: seen.append(sim.current))
        assert sim.current is None
        sim.run()
        assert seen == [(1.0, 0.0, event.seq, event)]

    def test_current_cleared_when_a_run_reaches_its_horizon(self, sim):
        # nothing due at or before `now` is still to run
        sim.schedule_at(1.0, lambda: None)
        sim.run(until=2.0)
        assert sim.now == 2.0 and sim.current is None


def noop(_=None):
    pass


class TestPush:
    """``push(time, placed_at, seq, callback, arg)``: the push nobody can
    cancel, which the packet path writes out in place — no
    :class:`Event`, only the entry on the packet heap, entered as
    ``callback(arg)``."""

    def test_runs_the_callback_with_its_args(self, sim):
        got = []
        sim.push(1.0, 0.0, None, lambda arg: got.append((sim.now, arg)), (1, "x"))
        sim.run()
        # one argument, whatever it is: a tuple is not unpacked
        assert got == [(1.0, (1, "x"))]

    def test_returns_the_seq_it_drew_or_the_one_it_was_given(self, sim):
        assert sim.push(1.0, 0.0, None, noop, None) == 0
        assert sim.schedule(1.0, noop).seq == 1
        assert sim.push(2.0, 1.5, None, noop, None) == 2
        assert sim.push(2.0, 0.0, 0, noop, None) == 0
        assert sim._seq == sim.queued_events == sim.pending_events == 4

    def test_current_is_the_plain_entry(self, sim):
        seen = []

        def record(tag):
            seen.append((tag, sim.current))

        sim.push(1.0, 0.0, None, record, "a")
        sim.push(1.0, 0.5, 0, record, "b")
        sim.run()
        assert seen == [
            ("a", (1.0, 0.0, 0, record, "a")),
            ("b", (1.0, 0.5, 0, record, "b")),
        ]

    def test_ties_with_events_follow_the_key(self, sim):
        order = []
        sim.push(1.0, 0.0, None, order.append, "plain-0")
        sim.schedule_at(1.0, order.append, "event-1")
        sim.push(1.0, 0.0, None, order.append, "plain-2")
        sim.schedule_at(1.0, order.append, "event-3").cancel()
        sim.push(1.0, 0.0, None, order.append, "plain-4")
        assert sim.pending_events == 4 and sim.dead_in_queue == 1
        sim.run()
        assert order == ["plain-0", "event-1", "plain-2", "plain-4"]
        assert sim.events_executed == 4 and sim.queued_events == 0

    @pytest.mark.parametrize(
        "time, placed_at",
        [
            (0.5, 0.0), (float("nan"), 0.0), (2.0, 3.0), (2.0, float("nan")),
            (float("inf"), 0.0),
        ],
    )
    def test_rejects_what_schedule_at_rejects(self, sim, time, placed_at):
        sim.run(until=1.0)
        with pytest.raises(SimulationError):
            sim.push(time, placed_at, None, noop, None)
        assert sim._seq == sim.queued_events == 0
