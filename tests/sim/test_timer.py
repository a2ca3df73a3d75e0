"""Unit tests for one-shot and periodic timers."""

import pytest

from repro.errors import SimulationError
from repro.sim.timer import PeriodicTimer, Timer


class TestTimer:
    def test_fires_after_delay(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.run()
        assert fired == [2.0]

    def test_restart_pushes_deadline(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.schedule(1.0, lambda: timer.start(2.0))  # re-arm at t=1
        sim.run()
        assert fired == [3.0]

    def test_stop_prevents_firing(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(1.0)
        timer.stop()
        sim.run()
        assert fired == []

    def test_stop_unarmed_is_noop(self, sim):
        Timer(sim, lambda: None).stop()

    def test_pending_and_expiry(self, sim):
        timer = Timer(sim, lambda: None)
        assert not timer.pending
        assert timer.expiry is None
        timer.start(3.0)
        assert timer.pending
        assert timer.expiry == 3.0
        sim.run()
        assert not timer.pending

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            Timer(sim, lambda: None).start(-1.0)

    @pytest.mark.parametrize("delay", [float("nan"), -1.0])
    def test_a_rejected_delay_leaves_the_timer_as_it_was(self, sim, delay):
        # NaN compares false with everything: `delay < 0` let it through,
        # the deadline became NaN and only the kernel's push refused it
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        with pytest.raises(SimulationError):
            timer.start(delay)
        assert not timer.pending and timer.expiry is None
        timer.start(2.0)
        with pytest.raises(SimulationError):
            timer.start(delay)
        assert timer.expiry == 2.0 and sim.pending_events == 1
        sim.run()
        assert fired == [2.0]

    def test_infinite_delay_rejected(self, sim):
        # the deadline became inf and the callback fired at t=inf
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        with pytest.raises(SimulationError, match="inf"):
            timer.start(float("inf"))
        assert not timer.pending and sim.pending_events == 0
        assert sim.run() == 0.0 and fired == []

    def test_callback_args(self, sim):
        got = []
        timer = Timer(sim, lambda x: got.append(x), 42)
        timer.start(0.5)
        sim.run()
        assert got == [42]

    def test_fires_at_most_once_per_start(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.run()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert fired == [1.0]


class TestPeriodicTimer:
    def test_fires_every_interval(self, sim):
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
        timer.start()
        sim.schedule(3.5, timer.stop)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_initial_delay(self, sim):
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
        timer.start(initial_delay=0.25)
        sim.schedule(2.5, timer.stop)
        sim.run()
        assert fired == [0.25, 1.25, 2.25]

    def test_stop_inside_callback(self, sim):
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) == 2:
                timer.stop()

        timer = PeriodicTimer(sim, 1.0, tick)
        timer.start()
        sim.run()
        assert fired == [1.0, 2.0]

    def test_invalid_interval_rejected(self, sim):
        with pytest.raises(SimulationError):
            PeriodicTimer(sim, 0.0, lambda: None)

    def test_nan_interval_rejected(self, sim):
        # `interval <= 0` is false for NaN: the timer was built, and its
        # first start() failed in the kernel with `running` left True
        with pytest.raises(SimulationError):
            PeriodicTimer(sim, float("nan"), lambda: None)

    def test_infinite_interval_rejected(self, sim):
        # every tick re-scheduled itself at inf + inf = inf, so run() never
        # returned; max_events bounds the run should the timer be built
        fired = []
        with pytest.raises(SimulationError, match="inf"):
            PeriodicTimer(sim, float("inf"), lambda: fired.append(sim.now)).start()
            sim.run(max_events=5)
        assert fired == [] and sim.pending_events == 0

    def test_infinite_initial_delay_rejected(self, sim):
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
        with pytest.raises(SimulationError, match="inf"):
            timer.start(float("inf"))
        assert not timer.running and sim.pending_events == 0
        sim.run(max_events=5)
        assert fired == []

    @pytest.mark.parametrize("initial_delay", [float("nan"), -1.0])
    def test_a_rejected_start_changes_nothing(self, sim, initial_delay):
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
        with pytest.raises(SimulationError):
            timer.start(initial_delay)
        assert not timer.running and sim.pending_events == 0
        # a running timer keeps its phase through a rejected restart
        timer.start()
        sim.run(until=0.5)
        with pytest.raises(SimulationError):
            timer.start(initial_delay)
        assert timer.running
        sim.schedule(2.0, timer.stop)  # at t=2.5
        sim.run()
        assert fired == [1.0, 2.0]

    def test_restart_resets_phase(self, sim):
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
        timer.start()
        sim.schedule(1.5, lambda: timer.start())  # restart mid-period
        sim.schedule(3.7, timer.stop)
        sim.run()
        assert fired == [1.0, 2.5, 3.5]

    def test_running_property(self, sim):
        timer = PeriodicTimer(sim, 1.0, lambda: None)
        assert not timer.running
        timer.start()
        assert timer.running
        timer.stop()
        assert not timer.running
