"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import sys

import pytest

from repro.net.topology import TestbedConfig, build_testbed
from repro.sim.engine import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def testbed(sim):
    """A default paper-style testbed (MTU 9000, bonded sender)."""
    return build_testbed(sim, TestbedConfig())


@pytest.fixture
def testbed_1500(sim):
    """A testbed at the Internet-standard 1500-byte MTU."""
    return build_testbed(sim, TestbedConfig(mtu_bytes=1500))


class PushWatch(Simulator):
    """A simulator that hands every entry pushed to :meth:`pushed`,
    whatever pushed it.

    The packet path writes most pushes in place instead of entering
    :meth:`Simulator.push` (``repro.sim.engine``'s design notes), so no
    override of ``push`` sees them. :meth:`run` dispatches one event at a
    time instead and diffs the heap around each dispatch: what is in it
    now and was not before is what the dispatch pushed, reported in push
    order (the entries that drew their own ``seq`` by it, then those
    that took a reserved place) while the clock still reads the instant
    they were pushed at. What is pushed outside a run is reported when
    the next run starts. Each diff must find as many entries as
    ``Simulator._seq`` says were pushed, so an entry it misses fails
    loudly instead of going uncounted.
    """

    def __init__(self):
        super().__init__()
        #: the heap as last diffed; held, so no id in it can be reused
        self._seen_queue = []
        self._seen_seq = 0

    def pushed(self, entry, own_seq):
        """Called once per entry pushed; ``own_seq`` is False for an
        entry that re-uses the ``seq`` of an earlier push."""

    def _diff(self):
        seen_seq = self._seen_seq
        if self._seq == seen_seq:
            return
        before = {id(entry) for entry in self._seen_queue}
        new = [entry for entry in self._queue if id(entry) not in before]
        assert len(new) == self._seq - seen_seq, "a push left the heap unseen"
        own = sorted((e for e in new if e[2] >= seen_seq), key=lambda e: e[2])
        for entry in own:
            self.pushed(entry, True)
        for entry in new:
            if entry[2] < seen_seq:
                self.pushed(entry, False)
        self._seen_queue = list(self._queue)
        self._seen_seq = self._seq

    def run(self, until=None, max_events=None):
        self._diff()
        left = max_events
        while True:
            budget = 1 if left is None else min(left, 1)
            before = self.events_executed
            super().run(until, budget)
            self._diff()
            if budget < 1 or self.events_executed == before or self._stop_requested:
                return self.now
            if left is not None:
                left -= 1


def make_testbed(sim, **overrides):
    """Helper for tests that need custom testbed parameters."""
    return build_testbed(sim, TestbedConfig(**overrides))


def count_calls(fn, *args, **kwargs):
    """Run ``fn``; return its result and how often each code object's
    frame was entered (``{code: calls}``).

    The perf gates' one instrument: Python frames are exact and repeat
    on any machine, unlike wall time. Garbage collection is off for the
    call so finalizers cannot add frames at allocation-dependent points.
    """
    calls = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[code] = calls.get(code, 0) + 1

    gc_was_enabled = gc.isenabled()
    outer_profile = sys.getprofile()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(outer_profile)
        if gc_was_enabled:
            gc.enable()
    return result, calls
