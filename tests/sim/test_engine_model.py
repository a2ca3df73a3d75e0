"""Stateful model test of the event kernel (ROADMAP 3a).

Hypothesis drives a :class:`Simulator` and a naive model — a list kept
sorted by ``(time, seq)``, dead entries included — through the same
random sequence of ``schedule`` / ``schedule_at`` / ``cancel`` /
``step`` / ``run(until=...)`` / ``run(max_events=...)`` / both at once /
``peek_time`` calls, with callbacks that schedule a child or call
``stop()``. After every rule the firing order (FIFO at equal
timestamps), the clock, and the ``pending_events`` / ``queued_events`` /
``dead_in_queue`` tallies must agree. The model shares no code with the kernel: it is the oracle
a rewrite of the dispatch loop is checked against.
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


class _Entry:
    """One heap-resident event in the model."""

    def __init__(self, time, seq, ident, kind):
        self.time = time
        self.seq = seq
        self.ident = ident
        self.kind = kind
        self.dead = False
        self.resident = True


class EngineMachine(RuleBasedStateMachine):
    scheduled = Bundle("scheduled")

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.real_fired = []
        # -- the model --
        self.now = 0.0
        self.seq = 0
        self.entries = []
        self.fired = []

    # -- model ---------------------------------------------------------

    def _insert(self, time, ident, kind):
        entry = _Entry(time, self.seq, ident, kind)
        self.seq += 1
        self.entries.append(entry)
        self.entries.sort(key=lambda e: (e.time, e.seq))
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
            self.fired.append((head.ident, head.time))
            executed += 1
            if head.kind == "spawn":
                self._insert(self.now + SPAWN_DELAY, ("child", head.ident), "plain")
            elif head.kind == "stop":
                stopped = True
                break
        # the budget ran out with entries still queued: the clock stays
        out_of_budget = (
            max_events is not None and executed >= max_events and self.entries
        )
        if until is not None and not stopped and not out_of_budget:
            self.now = max(self.now, until)
        return executed, stopped

    # -- the real callbacks ---------------------------------------------

    def _callback(self, ident, kind):
        def fire():
            self.real_fired.append((ident, self.sim.now))
            if kind == "spawn":
                self.sim.schedule(
                    SPAWN_DELAY, self._callback(("child", ident), "plain")
                )
            elif kind == "stop":
                self.sim.stop()

        return fire

    # -- rules -----------------------------------------------------------

    @rule(target=scheduled, delay=DELAYS, kind=KINDS)
    def schedule(self, delay, kind):
        ident = self.seq
        event = self.sim.schedule(delay, self._callback(ident, kind))
        return event, self._insert(self.now + delay, ident, kind)

    @rule(target=scheduled, offset=DELAYS, kind=KINDS)
    def schedule_at(self, offset, kind):
        ident = self.seq
        time = self.now + offset
        event = self.sim.schedule_at(time, self._callback(ident, kind))
        assert event.time == time
        return event, self._insert(time, ident, kind)

    @rule()
    def schedule_in_the_past_is_refused(self):
        with pytest.raises(SimulationError):
            self.sim.schedule(-0.25, lambda: None)
        if self.now > 0.0:
            with pytest.raises(SimulationError):
                self.sim.schedule_at(self.now / 2, lambda: None)

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
        assert self.sim.events_executed == len(self.fired)
        dead = sum(1 for e in self.entries if e.dead)
        assert self.sim.queued_events == len(self.entries)
        assert self.sim.dead_in_queue == dead
        assert self.sim.pending_events == len(self.entries) - dead


TestEngineModel = EngineMachine.TestCase
TestEngineModel.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
