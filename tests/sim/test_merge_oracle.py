"""Lockstep oracle for the merge of the kernel's two heaps.

:class:`Simulator` keeps the pushes nobody can cancel on one heap and
the :class:`Event` entries ``schedule_at`` makes on another, and its
``run`` dispatches whichever head has the smaller ``(time, placed_at,
seq)`` key: head times first, whole entries only when the times tie.
:class:`OneHeapSimulator` is the kernel as it was while one heap held
both: the same key, one heap, the ``run`` / ``push`` / ``schedule_at``
that use it, an :class:`Event` entered with its args tuple.
Both run the same script and the four shapes of
``tests/test_work_counters.py``, and must dispatch the same entries in
the same order, with the same ``events_executed`` after every call of
``run``.

What each kernel dispatched is read off its unmodified loop:
:func:`dispatched` notes ``Simulator.current`` at the first call the
loop makes after ``current`` changes, which is the callback of the entry
just popped.
"""

import sys
from heapq import heappop, heappush

import pytest

from repro.errors import SimulationError
from repro.harness import runner
from repro.harness.cache import ResultCache
from repro.harness.runner import run_once
from repro.sim.engine import Event, Simulator

from tests.sim.test_engine_model import DRIVERS, SCRIPTED, Boom, script
from tests.test_work_counters import PINNED, RUNS, grid_cell

#: the fifth item of an :class:`Event`'s entry on the one heap, where a
#: push's entry has the argument its callback is entered with
_EVENT = object()


class OneHeapSimulator(Simulator):
    """Every entry on ``_queue``, one heap: the reference for the merge.

    The packet path writes its entries onto ``_queue`` in place as it
    does on the shipped kernel; ``schedule_at`` pushes ``(time,
    placed_at, seq, event, _EVENT)`` onto the same heap.
    """

    def __init__(self):
        super().__init__()
        self._queue = []
        self._events = []  # unused: every entry is on ``_queue``

    @property
    def queued_events(self):
        return len(self._queue)

    def push(self, time, placed_at, seq, callback, arg):
        if not self.now <= time < float("inf") or not placed_at <= time:
            raise self.refusal(time, placed_at)
        own = self._seq
        self._seq = own + 1
        if seq is None:
            seq = own
        heappush(self._queue, (time, placed_at, seq, callback, arg))
        return seq

    def schedule_at(self, time, callback, *args, placed_at=None, seq=None):
        event = Event(time, -1, callback, args, False, self)
        event.seq = self.push(
            time, self.now if placed_at is None else placed_at, seq,
            event, _EVENT,
        )
        return event

    def run(self, until=None, max_events=None):
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stop_requested = False
        horizon = float("inf") if until is None else until
        left = max_events
        queue = self._queue if left is None or left > 0 else []
        try:
            while queue:
                time, _, _, callback, arg = queue[0]
                if arg is _EVENT:
                    event = callback
                    if event.cancelled:
                        heappop(queue)
                        event.sim = None
                        self._dead_in_queue -= 1
                        self._dead_popped += 1
                        continue
                    if time > horizon:
                        break
                    event.sim = None
                    event.cancelled = True
                    self.current = heappop(queue)
                    self.now = time
                    event.callback(*event.args)
                else:
                    if time > horizon:
                        break
                    self.current = heappop(queue)
                    self.now = time
                    callback(arg)
                if self._stop_requested:
                    break
                if left is not None:
                    left -= 1
                    if left <= 0:
                        break
            out_of_budget = left is not None and left <= 0 and bool(self._queue)
            if until is not None and not (self._stop_requested or out_of_budget):
                self.now = max(self.now, until)
                self.current = None
        finally:
            self._running = False
        return self.now


LOOPS = {Simulator.run.__code__, OneHeapSimulator.run.__code__}


def dispatched(fn, *args):
    """Run ``fn``; return its result, or the exception it raised, and the
    ``(time, placed_at, seq)`` of every entry the loop of any
    :class:`Calls` simulator dispatched meanwhile, in order."""
    keys = []

    def profile(frame, event, arg):
        if event == "call":
            loop = frame.f_back
        elif event == "c_call":
            loop = frame
        else:
            return
        if loop is None or loop.f_code not in LOOPS:
            return
        sim = loop.f_locals["self"]
        current = sim.current
        # held in `noted`, so no later entry can re-use its id
        if current is not None and current is not sim.noted:
            sim.noted = current
            keys.append(current[:3])

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        outcome = fn(*args)
    except Boom as error:
        outcome = error
    finally:
        sys.setprofile(outer)
    return outcome, keys


class Calls:
    """Notes ``events_executed`` and the clock after every ``run``, and
    holds the entry :func:`dispatched` noted last."""

    def __init__(self):
        super().__init__()
        self.after_calls = []
        self.noted = None

    def run(self, until=None, max_events=None):
        try:
            return super().run(until, max_events)
        finally:
            self.after_calls.append((self.events_executed, self.now))


class TwoHeaps(Calls, Simulator):
    pass


class OneHeap(Calls, OneHeapSimulator):
    pass


def drive_script(kernel, driver):
    """Run :func:`script` on ``kernel`` by ``driver`` until it drains."""
    sim = kernel()
    fired = []
    script(sim, fired)

    outcomes = []
    while sim.queued_events:
        outcome, keys = dispatched(DRIVERS[driver], sim)
        outcomes.append((type(outcome).__name__, keys))
        assert len(outcomes) < 100
    return {
        "fired": fired,
        "per call": outcomes,
        "after calls": sim.after_calls,
        "seq": sim._seq,
        "dead": (sim.dead_in_queue, sim._dead_popped),
    }


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_the_script_dispatches_as_on_one_heap(driver):
    shipped = drive_script(TwoHeaps, driver)
    assert shipped["fired"] == SCRIPTED
    # one run per call; each dispatched what events_executed counts
    assert len(shipped["per call"]) == len(shipped["after calls"])
    dispatched_so_far = 0
    for (_, keys), (executed, _) in zip(
        shipped["per call"], shipped["after calls"]
    ):
        dispatched_so_far += len(keys)
        assert executed == dispatched_so_far
    assert shipped == drive_script(OneHeap, driver)


def run_shape(kernel, shape, monkeypatch, tmp_path):
    """Run a work-counter shape with ``kernel`` as the harness's
    simulator; its result, dispatch order and per-call tallies."""
    built = []

    class Kept(kernel):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(runner, "Simulator", Kept)
    if shape in RUNS:
        result, keys = dispatched(run_once, *RUNS[shape])
    else:
        result, keys = dispatched(grid_cell, ResultCache(tmp_path / kernel.__name__))
    return {
        "result": result,
        "dispatched": keys,
        "after calls": [sim.after_calls for sim in built],
        "seq": [sim._seq for sim in built],
    }


@pytest.mark.parametrize("shape", sorted(PINNED))
def test_every_work_counter_shape_dispatches_as_on_one_heap(
    shape, monkeypatch, tmp_path
):
    shipped = run_shape(TwoHeaps, shape, monkeypatch, tmp_path)
    assert sum(shipped["seq"]) == PINNED[shape]["heap_pushes"]
    assert len(shipped["dispatched"]) == sum(
        calls[-1][0] for calls in shipped["after calls"]
    )
    assert shipped == run_shape(OneHeap, shape, monkeypatch, tmp_path)
