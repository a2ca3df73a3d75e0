"""The incremental progress model behind ``greenenvy obs watch``."""

import pytest

from repro.obs.progress import (
    ProgressTracker,
    format_progress,
    progress_to_dict,
)


def _run(item, scenario="a", seed=0, t=0.0, wall=0.1):
    return [
        {
            "event": "run_started",
            "item": item,
            "scenario": scenario,
            "seed": seed,
            "t_wall": t,
        },
        {
            "event": "run_finished",
            "item": item,
            "scenario": scenario,
            "seed": seed,
            "t_wall": t + wall,
            "wall_s": wall,
            "sim_time_s": 0.01,
            "energy_j": 1.0,
        },
    ]


def _batch(events, items=None, t0=0.0, t1=100.0):
    n = items if items is not None else len(
        [e for e in events if e["event"] == "run_finished"]
    )
    return (
        [{"event": "batch_started", "items": n, "t_wall": t0}]
        + events
        + [{"event": "batch_finished", "items": n, "t_wall": t1}]
    )


class TestTracker:
    def test_counts_and_completion(self):
        tracker = ProgressTracker()
        events = _run(0, t=0.0) + _run(1, seed=1, t=1.0)
        tracker.observe_all(_batch(events, t1=2.0))
        p = tracker.snapshot()
        assert p.items_total == 2
        assert p.runs_started == 2
        assert p.runs_finished == 2
        assert p.items_done == 2
        assert p.in_flight == 0
        assert p.fraction_done == 1.0
        assert p.complete
        assert not p.aborted
        assert p.eta_s == 0.0

    def test_mid_run_view(self):
        tracker = ProgressTracker()
        tracker.observe({"event": "batch_started", "items": 4, "t_wall": 0.0})
        tracker.observe_all(_run(0, t=0.0))
        tracker.observe(
            {"event": "run_started", "item": 1, "scenario": "a", "seed": 1,
             "t_wall": 0.2}
        )
        p = tracker.snapshot()
        assert p.items_total == 4
        assert p.items_done == 1
        assert p.in_flight == 1
        assert not p.complete
        assert 0.0 < p.fraction_done < 1.0

    def test_no_batch_header_means_incomplete_and_unknown_total(self):
        tracker = ProgressTracker()
        tracker.observe_all(_run(0))
        p = tracker.snapshot()
        assert p.items_total == 0
        assert not p.complete
        assert p.fraction_done == 0.0
        assert p.eta_s is None

    def test_sweep_header_estimate_yields_to_batch_headers(self):
        # sweep_started carries the planned item count; once real batch
        # headers arrive they are authoritative (and summed, for figure
        # pipelines that run several batches).
        tracker = ProgressTracker()
        tracker.observe(
            {"event": "sweep_started", "items": 12, "grid_points": 6,
             "repetitions": 2, "t_wall": 0.0}
        )
        assert tracker.snapshot().items_total == 12
        tracker.observe({"event": "batch_started", "items": 12, "t_wall": 0.1})
        assert tracker.snapshot().items_total == 12
        assert tracker.snapshot().grid_points == 6
        assert tracker.snapshot().repetitions == 2

    def test_multiple_batches_sum_their_items(self):
        tracker = ProgressTracker()
        tracker.observe({"event": "batch_started", "items": 3, "t_wall": 0.0})
        tracker.observe({"event": "batch_finished", "items": 3, "t_wall": 1.0})
        tracker.observe({"event": "batch_started", "items": 5, "t_wall": 2.0})
        p = tracker.snapshot()
        assert p.items_total == 8
        assert not p.complete  # second batch still open

    def test_cache_hits_and_errors_count_as_done(self):
        tracker = ProgressTracker()
        tracker.observe({"event": "batch_started", "items": 3, "t_wall": 0.0})
        tracker.observe(
            {"event": "cache_hit", "item": 0, "scenario": "a", "seed": 0,
             "t_wall": 0.1}
        )
        tracker.observe_all(_run(1, t=0.2))
        tracker.observe(
            {"event": "worker_error", "item": 2, "scenario": "a", "seed": 2,
             "t_wall": 0.4, "error": "boom"}
        )
        p = tracker.snapshot()
        assert p.items_done == 3
        assert p.cache_hits == 1
        assert p.errors == 1
        scenario = p.scenarios["a"]
        assert scenario.done == 3
        assert scenario.cache_hits == 1
        assert scenario.errors == 1

    def test_abort_latches_reason(self):
        tracker = ProgressTracker()
        tracker.observe({"event": "batch_started", "items": 4, "t_wall": 0.0})
        tracker.observe(
            {"event": "batch_aborted", "items": 4, "completed": 1,
             "reason": "drift vs baseline: a/energy_j", "t_wall": 1.0}
        )
        p = tracker.snapshot()
        assert p.aborted
        assert p.complete  # terminal event arrived
        assert p.abort_reason == "drift vs baseline: a/energy_j"

    def test_eta_from_ewma_of_completion_intervals(self):
        tracker = ProgressTracker()
        tracker.observe({"event": "batch_started", "items": 10, "t_wall": 0.0})
        # Three completions exactly 2s apart: the EWMA is exactly 2.
        for i, t in enumerate((2.0, 4.0, 6.0)):
            tracker.observe_all(_run(i, seed=i, t=t - 0.1, wall=0.1))
        p = tracker.snapshot()
        assert p.ewma_interval_s == pytest.approx(2.0)
        assert p.eta_s == pytest.approx(7 * 2.0)

    def test_wall_percentiles_and_events_per_s(self):
        tracker = ProgressTracker()
        tracker.observe({"event": "batch_started", "items": 2, "t_wall": 0.0})
        tracker.observe_all(_run(0, t=0.0, wall=0.1))
        tracker.observe_all(_run(1, seed=1, t=1.0, wall=0.3))
        tracker.observe(
            {"event": "span", "phase": "sim_loop", "wall_s": 2.0,
             "events_executed": 1000, "t_wall": 1.5}
        )
        p = tracker.snapshot()
        assert p.wall_max_s == pytest.approx(0.3)
        assert p.wall_p50_s == pytest.approx(0.2)  # interpolated, as obs report
        assert p.wall_p90_s == pytest.approx(0.28)
        assert p.events_executed == 1000
        assert p.events_per_s == pytest.approx(500.0)
        assert p.phases["sim_loop"].count == 1

    def test_elapsed_spans_first_to_last_event(self):
        tracker = ProgressTracker()
        tracker.observe({"event": "batch_started", "items": 1, "t_wall": 10.0})
        tracker.observe_all(_run(0, t=12.0))
        assert tracker.snapshot().elapsed_s == pytest.approx(2.1)


class TestRenderings:
    def _progress(self):
        tracker = ProgressTracker()
        tracker.observe_all(_batch(_run(0) + _run(1, seed=1, t=1.0)))
        return tracker.snapshot()

    def test_dict_is_versioned_and_json_ready(self):
        import json

        doc = progress_to_dict(self._progress())
        assert doc["version"] == 1
        assert doc["items_total"] == 2
        assert doc["complete"] is True
        assert doc["scenarios"]["a"]["finished"] == 2
        json.dumps(doc)  # must serialize cleanly

    def test_unknown_eta_renders_as_unknown(self):
        tracker = ProgressTracker()
        tracker.observe({"event": "batch_started", "items": 4, "t_wall": 0.0})
        progress = tracker.snapshot()
        assert progress_to_dict(progress)["eta_s"] is None
        assert "eta ?" in format_progress(progress)

    def test_text_view_shows_bar_and_state(self):
        text = format_progress(self._progress())
        assert "2/2 items" in text
        assert "complete" in text
        assert "#" in text

    def test_text_view_flags_aborts(self):
        tracker = ProgressTracker()
        tracker.observe({"event": "batch_started", "items": 4, "t_wall": 0.0})
        tracker.observe(
            {"event": "batch_aborted", "items": 4, "completed": 0,
             "reason": "drift", "t_wall": 1.0}
        )
        assert "ABORTED (drift)" in format_progress(tracker.snapshot())
