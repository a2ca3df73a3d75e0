"""Enabled instrumentation stays proportionate to the run it observes.

The two wall-clock assertions left about instrumentation, both loose
ratios and both outside tier-1 (``make obs-bench``): journaling costs
under 1.5x and hot-path profiling under 2x of the untraced run. What tracing costs
when it is *off* is not a timing question: it is an exact frame count,
gated in ``tests/obs/test_overhead_frames.py``.
"""

import time

from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import run_once
from repro.obs.observer import TracingObserver

SIZE = 2_000_000
ROUNDS = 5
REPS_PER_ROUND = 4


def _scenario(name="bench-obs"):
    return Scenario(name=name, flows=[FlowSpec(SIZE)], packages=1)


def _min_wall_s(fn):
    """Best-of-ROUNDS wall time of ``fn`` (min filters scheduler noise)."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_profiled_run_stays_proportionate(tmp_path):
    scenario = _scenario()

    def unprofiled():
        for seed in range(REPS_PER_ROUND):
            run_once(scenario, seed=seed)

    unprofiled()
    base_s = _min_wall_s(unprofiled)

    def profiled():
        with TracingObserver(tmp_path / "ptrace", profile=True) as obs:
            for seed in range(REPS_PER_ROUND):
                run_once(scenario, seed=seed, observer=obs)

    profiled()
    profiled_s = _min_wall_s(profiled)
    # Collecting stack self-times reads the perf clock twice per
    # dispatch, so profiling is not free — but it must stay a small
    # multiple of the simulation it measures.
    assert profiled_s < 2.0 * base_s, (
        f"enabled profiling too expensive: {profiled_s:.4f}s vs {base_s:.4f}s"
    )


def test_enabled_tracing_stays_proportionate(tmp_path):
    scenario = _scenario()

    def untraced():
        for seed in range(REPS_PER_ROUND):
            run_once(scenario, seed=seed)

    untraced()
    base_s = _min_wall_s(untraced)

    def traced():
        with TracingObserver(tmp_path / "trace") as obs:
            for seed in range(REPS_PER_ROUND):
                run_once(scenario, seed=seed, observer=obs)

    traced()
    traced_s = _min_wall_s(traced)
    # Journaling writes files, so it is not free — but it must stay a
    # small fraction of the simulation it describes.
    assert traced_s < 1.5 * base_s, (
        f"enabled tracing too expensive: {traced_s:.4f}s vs {base_s:.4f}s"
    )
