"""Golden outputs of the four journal views: ``obs report`` (text and
``--format json``) and ``obs watch --once`` (text and ``--json``).

Each case is a hand-built journal with fixed ``t_wall`` stamps, shaped
like what the executor writes; each expected output sits under
``tests/obs/golden/<case>.<view>.txt`` as ``exit: N`` followed by the
command's stdout, byte for byte. A refactor of the counting layer must
leave every file unchanged. To regenerate after a deliberate change of
a view, run ``PYTHONPATH=src python -m tests.obs.test_cli_golden`` and
review the diff.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

VIEWS = {
    "report": ["obs", "report"],
    "report-json": ["obs", "report", "--format", "json"],
    "watch": ["obs", "watch", "--once"],
    "watch-json": ["obs", "watch", "--once", "--json"],
}


def _run(item, scenario, seed, t, wall, energy=1.0, spans=()):
    """One fresh run: started, its spans, finished (``t`` = start)."""
    key = {"item": item, "scenario": scenario, "seed": seed}
    records = [{"event": "run_started", "t_wall": t, "worker": 7, **key}]
    for phase, span_wall, extra in spans:
        records.append(
            {"event": "span", "phase": phase, "wall_s": span_wall,
             "t_wall": t + wall / 2, "worker": 7,
             "scenario": scenario, "seed": seed, **extra}
        )
    records.append(
        {"event": "run_finished", "t_wall": t + wall, "worker": 7,
         "wall_s": wall, "sim_time_s": 0.0125 * (seed + 1),
         "energy_j": energy, **key}
    )
    return records


def _event(event, t, **fields):
    return {"event": event, "t_wall": t, "worker": 7, **fields}


def complete():
    """A finished two-scenario sweep with build/loop/measure spans."""
    records = [
        _event("sweep_started", 100.0, items=4, grid_points=2,
               repetitions=2, axes={"fraction": 2}),
        _event("batch_started", 100.0, items=4, backend="serial",
               cache=False),
    ]
    walls = {("fair", 0): 0.25, ("fair", 1): 0.5,
             ("unfair", 0): 0.125, ("unfair", 1): 0.75}
    t = 100.5
    for item, ((scenario, seed), wall) in enumerate(walls.items()):
        records += _run(
            item, scenario, seed, t, wall, energy=10.0 + item,
            spans=[("testbed_build", 0.01, {}),
                   ("sim_loop", wall * 0.75, {"events_executed": 4000}),
                   ("measurement", 0.002, {})],
        )
        t += wall + 0.25
    records += [
        _event("batch_finished", t, items=4, executed=4, cache_hits=0),
        _event("sweep_finished", t, items=4),
    ]
    return records


def hits_and_error():
    """A cached sweep: two hits, two misses, one run, one worker error."""
    records = [
        _event("batch_started", 10.0, items=4, backend="process",
               cache=True),
        _event("span", 10.25, phase="cache_lookup", wall_s=0.003, items=4),
    ]
    for item in range(4):
        records.append(
            _event("cache_hit" if item < 2 else "cache_miss", 10.25,
                   item=item, scenario="s", seed=item,
                   cache_key=f"k{item}")
        )
    records += _run(2, "s", 2, 11.0, 0.375,
                    spans=[("sim_loop", 0.25, {"events_executed": 900})])
    records += [
        _event("run_started", 11.5, item=3, scenario="s", seed=3),
        _event("worker_error", 12.0, item=3, scenario="s", seed=3,
               error_type="ExperimentError",
               error="flow 0 did not finish"),
        _event("span", 12.5, phase="cache_store", wall_s=0.001, items=2),
        _event("batch_finished", 12.5, items=4, executed=2, cache_hits=2),
    ]
    return records


def aborted():
    """A sweep cancelled by the drift gate after two of six items."""
    reason = "drift vs baseline: a/energy_j"
    records = [
        _event("sweep_started", 0.0, items=6, grid_points=3,
               repetitions=2, axes={"x": 3}),
        _event("batch_started", 0.0, items=6, backend="serial",
               cache=False),
    ]
    records += _run(0, "a", 0, 0.5, 0.25)
    records += _run(1, "a", 1, 1.0, 0.5)
    records += [
        _event("run_started", 1.75, item=2, scenario="b", seed=0),
        _event("batch_aborted", 2.0, items=6, completed=2, reason=reason),
        _event("sweep_aborted", 2.0, items=2, grid_points=1, reason=reason),
    ]
    return records


def killed():
    """A coordinator killed mid-batch: no terminal batch event."""
    records = [
        _event("batch_started", 50.0, items=3, backend="serial",
               cache=False),
    ]
    records += _run(0, "k", 0, 50.0, 1.5)
    records += [_event("run_started", 51.75, item=1, scenario="k", seed=1)]
    return records


def heap():
    """sim_loop spans carrying the engine's post-loop heap fields."""
    records = [
        _event("batch_started", 0.0, items=3, backend="serial",
               cache=False),
    ]
    heaps = [(12, 3, 40), (30, 0, 33), (7, 11, 25)]
    t = 0.25
    for item, (pending, dead, queued) in enumerate(heaps):
        loop = {"events_executed": 5000 * (item + 1),
                "pending_events": pending, "dead_in_queue": dead,
                "queued_events": queued}
        records += _run(item, "h", item, t, 0.5,
                        spans=[("sim_loop", 0.375, loop)])
        t += 0.75
    records += [_event("batch_finished", t, items=3, executed=3,
                       cache_hits=0)]
    return records


CASES = {
    case.__name__: case
    for case in (complete, hits_and_error, aborted, killed, heap)
}


def render(case, view, root):
    """``exit: N`` plus the stdout of one view over one case's journal."""
    import contextlib
    import io

    trace = Path(root) / case
    trace.mkdir(parents=True, exist_ok=True)
    with (trace / "journal.jsonl").open("w", encoding="utf-8") as handle:
        for record in CASES[case]():
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(VIEWS[view] + [str(trace)])
    return f"exit: {code}\n{out.getvalue()}"


@pytest.mark.parametrize("view", sorted(VIEWS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_view_matches_golden(case, view, tmp_path):
    expected = (GOLDEN / f"{case}.{view}.txt").read_text(encoding="utf-8")
    assert render(case, view, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            for view in sorted(VIEWS):
                (GOLDEN / f"{case}.{view}.txt").write_text(
                    render(case, view, scratch), encoding="utf-8"
                )
