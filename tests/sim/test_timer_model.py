"""Stateful model test of the re-arm-in-place :class:`Timer`.

Hypothesis drives a timer and a naive model — nothing but the deadline
of the last ``start`` — through the same random sequence of ``start`` /
``stop`` / advance-the-clock steps, with a callback that may re-arm the
timer from inside (what ``TcpSender._on_rto`` does). After every rule
the firings (exactly once, at the last start's deadline, never after a
stop), ``pending`` and ``expiry`` must agree with the model, and the
heap may hold at most one live entry for the timer however often it was
re-armed.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.sim.engine import Simulator
from repro.sim.timer import Timer

#: few distinct values, so a restart lands before, on and after the
#: entry already in the heap
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.5])


class TimerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.timer = Timer(self.sim, self._fired)
        self.real_fired = []
        self.rearm = None  # delay the next firing restarts the timer with
        # -- the model --
        self.now = 0.0
        self.deadline = None
        self.model_rearm = None
        self.fired = []

    def _fired(self):
        self.real_fired.append(self.sim.now)
        delay, self.rearm = self.rearm, None
        if delay is not None:
            self.timer.start(delay)

    @rule(delay=DELAYS)
    def start(self, delay):
        self.timer.start(delay)
        self.deadline = self.now + delay

    @rule()
    def stop(self):
        self.timer.stop()
        self.deadline = None

    @rule(delay=DELAYS)
    def next_firing_rearms(self, delay):
        self.rearm = self.model_rearm = delay

    @rule(dt=DELAYS)
    def advance(self, dt):
        until = self.now + dt
        while self.deadline is not None and self.deadline <= until:
            fired_at = self.deadline
            self.fired.append(fired_at)
            delay, self.model_rearm = self.model_rearm, None
            self.deadline = None if delay is None else fired_at + delay
        self.sim.run(until=until)
        self.now = until

    @invariant()
    def agrees_with_the_model(self):
        assert self.real_fired == self.fired
        assert self.timer.pending is (self.deadline is not None)
        assert self.timer.expiry == self.deadline
        # a timer's entries are Events: (time, placed_at, seq, event, None)
        entries = self.sim._queue
        assert all(args is None for *_, args in entries)
        live = [e for *_, e, _ in entries if not e.cancelled]
        assert len(live) <= 1
        if self.deadline is not None:
            # the one entry wakes the timer no later than it is due
            assert len(live) == 1 and live[0].time <= self.deadline


TestTimerModel = TimerMachine.TestCase
TestTimerModel.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
