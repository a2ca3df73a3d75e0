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
