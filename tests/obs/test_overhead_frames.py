"""The zero-overhead contract of ``repro.obs``, as exact frame counts.

Every hook in the runner, the engine and the TCP/queue hot paths goes
through a shared no-op (observer, probe sink), so a run that
never asked for ``--trace`` must do the same work as one built before
the observability layer existed. "Same work" is Python frames entered
(:func:`tests.conftest.count_calls`), which repeat exactly — the 2 %
wall-clock A/A comparisons these replace failed on identical code.

Only equalities and size-independent offsets are pinned: a run's total
frame count differs between interpreter versions (3.12 inlines
comprehensions), a difference between two runs of one interpreter does
not.
"""

import pytest

from repro.harness.executor import run_work_items
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import run_once
from repro.obs.observer import NULL_OBSERVER, TracingObserver
from repro.sim.probe import NULL_PROBE_SINK

from tests.conftest import count_calls
from tests.harness.test_live_determinism import Watcher, items_for

SIZES = (200_000, 2_000_000)

#: where the instrumentation lives: the obs package and the write-only
#: protocol the sim layer calls into
INSTRUMENTATION = ("/repro/obs/", "/repro/sim/probe.py")


def frames(fn, *args, **kwargs):
    """(all frames entered, those inside the instrumentation)."""
    _, calls = count_calls(fn, *args, **kwargs)
    inside = sum(
        n
        for code, n in calls.items()
        if any(part in code.co_filename for part in INSTRUMENTATION)
    )
    return sum(calls.values()), inside


@pytest.fixture(scope="module")
def untraced():
    """size -> frames of a plain ``run_once``, measured warm (the first
    run of a process also enters the import system's frames)."""
    scenarios = {
        size: Scenario(name="frames", flows=[FlowSpec(size)], packages=1)
        for size in SIZES
    }
    run_once(scenarios[SIZES[0]], 0)
    return {
        size: (scenario, frames(run_once, scenario, 0))
        for size, scenario in scenarios.items()
    }


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("observer", [NULL_OBSERVER], ids=["null-observer"])
def test_noop_instrumentation_adds_no_frames(untraced, size, observer):
    scenario, (plain, _) = untraced[size]
    total, _ = frames(run_once, scenario, 0, observer=observer)
    assert total == plain


def test_tracing_off_costs_no_frame_per_event(untraced):
    # The null path is a constant per run, whatever the event count:
    # the three spans (call, enter, exit; one `add`), the sink hand-out,
    # its record call and the flow-energy attribution. Hot-path sites
    # read `.enabled` as a plain attribute and enter nothing.
    (small_total, small), (large_total, large) = (
        untraced[size][1] for size in SIZES
    )
    assert large_total > 5 * small_total
    assert small == large == 13


def test_explicit_null_sink_only_skips_the_two_sink_hooks(untraced):
    # Passing the sink skips `Observer.probe_sink` and
    # `Observer.record_telemetry`; nothing else may notice.
    for scenario, (total, inside) in untraced.values():
        assert frames(
            run_once, scenario, 0, probe_sink=NULL_PROBE_SINK
        ) == (total - 2, inside - 2)


def test_attached_watcher_adds_no_frames_to_the_producer(tmp_path):
    # `obs watch` rides on files the sweep writes anyway: a live tail
    # must leave the traced producer's own code path untouched. (The watcher thread's frames are its own: the profile
    # hook is per-thread.)
    def batch(trace):
        with TracingObserver(trace) as obs:
            return run_work_items(items_for(), observer=obs)

    def traced(name):
        return frames(batch, tmp_path / name)

    for name in ("warm-up", "quiet", "watched"):
        # the watcher attaches to a directory before the sweep starts,
        # so every run finds its directory already there
        (tmp_path / name).mkdir()
    traced("warm-up")
    quiet = traced("quiet")
    with Watcher(tmp_path / "watched") as watcher:
        watched = traced("watched")
    assert watcher.polls >= 1
    assert watched == quiet
