"""Stateful model test of the event kernel (ROADMAP 3a).

Hypothesis drives a :class:`Simulator` and a naive model — a list kept
sorted by ``(time, placed_at, seq)``, dead entries included — through
the same random sequence of ``schedule`` / ``schedule_at`` / ``push`` /
``cancel`` / ``step`` / ``run(until=...)`` / ``run(max_events=...)`` /
both at once / ``peek_time`` calls, with callbacks that push a child of
their own kind or call ``stop()``. ``push`` comes plain (placed at
``now``), placed later than ``now``, and into a place an earlier push
reserved (its instant and ``seq``, as a link's finish re-uses its
delivery's), so plain entries and :class:`Event` entries tie at equal
times all the time. After every rule the firing order, the key
``current`` holds while each callback runs, the clock, the pushes drawn
and the ``events_executed`` / ``pending_events`` / ``queued_events`` /
``dead_in_queue`` tallies must agree. The model shares no code with the
kernel: it is the oracle a rewrite of the dispatch loop is checked
against. A scripted schedule beside it (a raising callback, ``stop()``,
``peek_time`` popping a dead entry from inside a callback) is run
unbounded, under ``until`` and one ``step()`` at a time, and holds the
derived ``events_executed`` to the callbacks dispatched after every call.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from repro.errors import SimulationError
from repro.sim.engine import Simulator

#: few distinct values, so equal timestamps (FIFO ties) are common
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.5])
#: what a callback does besides recording that it fired
KINDS = st.sampled_from(["plain", "plain", "spawn", "stop"])
SPAWN_DELAY = 0.5
#: where between ``now`` and its due time a push takes its place
PLACEMENTS = st.sampled_from([0.0, 0.0, 0.5, 1.0])


class _Entry:
    """One heap-resident entry in the model."""

    def __init__(self, time, placed_at, seq, ident, kind, cancellable):
        self.key = (time, placed_at, seq)
        self.time = time
        self.ident = ident
        self.kind = kind
        self.cancellable = cancellable
        self.dead = False
        self.resident = True


class EngineMachine(RuleBasedStateMachine):
    scheduled = Bundle("scheduled")
    #: (instant, seq) of plain pushes, for a later push to re-use
    reservations = Bundle("reservations")

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.real_fired = []
        # -- the model --
        self.now = 0.0
        self.seq = 0
        self.entries = []
        self.fired = []
        self.current = None

    # -- model ---------------------------------------------------------

    def _insert(self, time, ident, kind, cancellable, placed_at=None, seq=None):
        own = self.seq
        self.seq += 1
        entry = _Entry(
            time,
            self.now if placed_at is None else placed_at,
            own if seq is None else seq,
            ident, kind, cancellable,
        )
        self.entries.append(entry)
        self.entries.sort(key=lambda e: e.key)
        return entry

    def _drop_head(self):
        self.entries.pop(0).resident = False

    def _model_run(self, until=None, max_events=None):
        executed = 0
        stopped = False
        while self.entries and (max_events is None or executed < max_events):
            head = self.entries[0]
            if head.dead:
                self._drop_head()
                continue
            if until is not None and head.time > until:
                break
            self._drop_head()
            self.now = head.time
            self.current = head.key
            self.fired.append((head.ident, head.time, head.key))
            executed += 1
            if head.kind == "spawn":
                self._insert(
                    self.now + SPAWN_DELAY, ("child", head.ident), "plain",
                    head.cancellable,
                )
            elif head.kind == "stop":
                stopped = True
                break
        # the budget ran out with entries still queued: the clock stays
        out_of_budget = (
            max_events is not None and executed >= max_events and self.entries
        )
        if until is not None and not stopped and not out_of_budget:
            self.now = max(self.now, until)
            self.current = None
        return executed, stopped

    # -- the real callbacks ---------------------------------------------

    def _callback(self, ident, kind, cancellable):
        def fire(_=None):  # a push's entry is entered with one argument
            sim = self.sim
            self.real_fired.append((ident, sim.now, sim.current[:3]))
            if kind == "spawn":
                child = self._callback(("child", ident), "plain", cancellable)
                if cancellable:
                    sim.schedule(SPAWN_DELAY, child)
                else:
                    sim.push(sim.now + SPAWN_DELAY, sim.now, None, child, None)
            elif kind == "stop":
                sim.stop()

        return fire

    # -- rules -----------------------------------------------------------

    @rule(target=scheduled, delay=DELAYS, kind=KINDS)
    def schedule(self, delay, kind):
        ident = self.seq
        event = self.sim.schedule(delay, self._callback(ident, kind, True))
        return event, self._insert(self.now + delay, ident, kind, True)

    @rule(target=scheduled, offset=DELAYS, kind=KINDS)
    def schedule_at(self, offset, kind):
        ident = self.seq
        time = self.now + offset
        event = self.sim.schedule_at(time, self._callback(ident, kind, True))
        assert event.time == time and event.seq == ident
        return event, self._insert(time, ident, kind, True)

    @rule(target=reservations, offset=DELAYS, kind=KINDS, placement=PLACEMENTS)
    def push(self, offset, kind, placement):
        ident = self.seq
        time = self.now + offset
        placed_at = self.now + placement * offset
        seq = self.sim.push(
            time, placed_at, None, self._callback(ident, kind, False), None
        )
        assert seq == ident
        self._insert(time, ident, kind, False, placed_at=placed_at)
        return self.now, seq

    @rule(reservation=reservations, offset=DELAYS, kind=KINDS)
    def push_into_a_reserved_place(self, reservation, offset, kind):
        """What a link's finish does: due now or later, it takes the
        place (instant and ``seq``) its delivery's push drew, and draws a
        number of its own that nothing sorts by."""
        instant, seq = reservation
        time = self.now + offset
        if any(e.key == (time, instant, seq) for e in self.entries):
            return  # one key, one entry: the heap never compares callbacks
        ident = self.seq
        got = self.sim.push(
            time, instant, seq, self._callback(ident, kind, False), None
        )
        assert got == seq
        self._insert(time, ident, kind, False, placed_at=instant, seq=seq)

    @rule()
    def schedule_in_the_past_is_refused(self):
        with pytest.raises(SimulationError):
            self.sim.schedule(-0.25, lambda: None)
        if self.now > 0.0:
            with pytest.raises(SimulationError):
                self.sim.schedule_at(self.now / 2, lambda: None)
            with pytest.raises(SimulationError):
                self.sim.push(self.now / 2, 0.0, None, print, None)
        with pytest.raises(SimulationError):
            self.sim.push(self.now + 1.0, self.now + 2.0, None, print, None)
        with pytest.raises(SimulationError):
            self.sim.push(float("nan"), self.now, None, print, None)

    @rule(pair=scheduled)
    def cancel(self, pair):
        event, entry = pair
        event.cancel()
        if entry.resident:
            entry.dead = True
        assert not event.alive

    @rule()
    def step(self):
        executed, _ = self._model_run(max_events=1)
        assert self.sim.step() is (executed == 1)

    @rule(offset=DELAYS)
    def run_until(self, offset):
        until = self.now + offset
        _, stopped = self._model_run(until=until)
        assert self.sim.run(until=until) == self.now
        if stopped:
            # the clock stays on the stopping event, never at `until`
            assert self.sim.now == self.fired[-1][1] <= until
        else:
            assert self.sim.now == until

    @rule(max_events=st.integers(min_value=0, max_value=6))
    def run_max_events(self, max_events):
        before = self.sim.events_executed
        executed, _ = self._model_run(max_events=max_events)
        assert self.sim.run(max_events=max_events) == self.now
        assert self.sim.events_executed - before == executed <= max_events

    @rule(offset=DELAYS, max_events=st.integers(min_value=0, max_value=6))
    def run_until_and_max_events(self, offset, max_events):
        until = self.now + offset
        before = self.sim.events_executed
        executed, _ = self._model_run(until=until, max_events=max_events)
        assert self.sim.run(until=until, max_events=max_events) == self.now
        assert self.sim.events_executed - before == executed <= max_events

    @rule()
    def run_to_drain_or_stop(self):
        _, stopped = self._model_run()
        self.sim.run()
        if not stopped:
            assert self.sim.pending_events == 0

    @rule()
    def stop_outside_a_run_is_forgotten(self):
        self.sim.stop()

    @rule()
    def peek_time(self):
        while self.entries and self.entries[0].dead:
            self._drop_head()
        expected = self.entries[0].time if self.entries else None
        assert self.sim.peek_time() == expected

    # -- checked after every rule ------------------------------------------

    @invariant()
    def agrees_with_the_model(self):
        assert self.real_fired == self.fired
        assert self.sim.now == self.now
        current = self.sim.current
        assert (None if current is None else current[:3]) == self.current
        assert self.sim._seq == self.seq
        assert self.sim.events_executed == len(self.fired)
        dead = sum(1 for e in self.entries if e.dead)
        assert self.sim.queued_events == len(self.entries)
        assert self.sim.dead_in_queue == dead
        assert self.sim.pending_events == len(self.entries) - dead


TestEngineModel = EngineMachine.TestCase
TestEngineModel.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)


# -- one script, three ways of driving it ------------------------------


class Boom(Exception):
    """What the raising callback of :func:`script` raises."""


def script(sim, fired):
    """Schedule a fixed mix on ``sim``: plain and :class:`Event` entries
    tied at one ``(time, placed_at)`` in both orders, an entry cancelled
    before the run and one cancelled by a callback, a callback that
    raises, one that calls ``stop()``, and one that cancels the entry
    next in line and calls ``peek_time``, which pops it. Every callback
    notes itself and its arguments in ``fired`` before it does anything
    else."""

    def note(name, then=None):
        def fire(*args):
            fired.append((name, sim.now, args))
            if then is not None:
                then()

        return fire

    def boom():
        raise Boom

    def spawn():
        sim.push(sim.now + 0.25, sim.now, None, note("pushed child"), 1)
        sim.schedule(0.0, note("tied child"))

    def peek():
        popped_by_peek.cancel()
        assert sim.peek_time() == 2.75

    sim.schedule_at(1.5, note("cancelled before the run")).cancel()
    cancelled_by_callback = sim.schedule_at(2.0, note("cancelled in the run"))
    popped_by_peek = sim.schedule_at(2.5, note("popped by peek_time"))
    sim.push(1.0, 0.0, None, note("plain", spawn), None)
    sim.schedule_at(1.0, note("cancels", cancelled_by_callback.cancel))
    sim.schedule_at(1.25, note("raises", boom))
    sim.push(1.25, 0.0, None, note("after the raise"), None)
    sim.schedule_at(1.75, note("stops", sim.stop))
    sim.push(1.75, 0.0, None, note("after the stop"), None)
    sim.schedule_at(2.25, note("peeks", peek))
    # the same (time, placed_at) again, the timer ahead of the packet
    sim.schedule_at(2.75, note("timer before a packet"))
    sim.push(2.75, 0.0, None, note("packet after a timer"), None)
    sim.push(3.0, 0.0, None, note("last"), None)


#: what :func:`script` dispatches, in order, however it is driven
SCRIPTED = [
    ("plain", 1.0, (None,)),
    ("cancels", 1.0, ()),
    ("tied child", 1.0, ()),
    ("raises", 1.25, ()),
    ("after the raise", 1.25, (None,)),
    ("pushed child", 1.25, (1,)),
    ("stops", 1.75, ()),
    ("after the stop", 1.75, (None,)),
    ("peeks", 2.25, ()),
    ("timer before a packet", 2.75, ()),
    ("packet after a timer", 2.75, (None,)),
    ("last", 3.0, (None,)),
]

DRIVERS = {
    "unbounded": lambda sim: sim.run(),
    "until": lambda sim: sim.run(until=sim.now + 0.5),
    "step": lambda sim: sim.step(),
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_events_executed_counts_the_callbacks_dispatched(driver):
    """``events_executed`` is derived (pushes, less entries queued, less
    dead entries popped), so a dead entry popped anywhere — by the loop
    or by ``peek_time`` inside a callback — must be counted where it is
    popped. After every call, however the run ended (drained, horizon,
    budget, ``stop()`` or an exception), it equals the callbacks run."""
    sim = Simulator()
    fired = []
    script(sim, fired)
    calls = 0
    while sim.queued_events:
        try:
            DRIVERS[driver](sim)
        except Boom:
            assert fired[-1][0] == "raises"
        assert sim.events_executed == len(fired)
        calls += 1
        assert calls < 100
    assert fired == SCRIPTED
    assert sim.events_executed == len(SCRIPTED)
    assert sim.dead_in_queue == 0 and sim._seq == 15
