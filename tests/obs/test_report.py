"""Journal summarization and the obs-report rendering."""

import pytest

from repro.errors import AnalysisError
from repro.obs.report import (
    format_report,
    percentile,
    summarize_journal,
    summary_to_dict,
)


def _events(errors=0):
    events = [
        {"event": "batch_started", "items": 4},
        {"event": "cache_hit", "item": 0, "scenario": "a", "seed": 0},
        {"event": "cache_miss", "item": 1, "scenario": "a", "seed": 1},
    ]
    walls = [0.1, 0.3, 0.2]
    for i, wall in enumerate(walls):
        events.append(
            {
                "event": "run_finished",
                "item": i,
                "scenario": "a" if i < 2 else "b",
                "seed": i,
                "wall_s": wall,
                "sim_time_s": 0.01,
                "energy_j": 1.0 + i,
            }
        )
        events.append({"event": "span", "phase": "sim_loop", "wall_s": wall / 2})
    for i in range(errors):
        events.append(
            {
                "event": "worker_error",
                "scenario": "a",
                "seed": 9 + i,
                "worker": 123,
                "error_type": "ExperimentError",
                "error": "boom",
            }
        )
    # Every started batch reaches its terminal event: this fixture is a
    # sweep that *finished* (summaries of killed sweeps are tested in
    # TestCompleteness).
    events.append(
        {"event": "batch_finished", "items": 4, "executed": 3, "cache_hits": 1}
    )
    return events


class TestPercentile:
    def test_interpolates(self):
        assert percentile([0.0, 10.0], 50.0) == pytest.approx(5.0)
        assert percentile([1.0, 2.0, 3.0], 100.0) == 3.0

    def test_empty_sample_raises(self):
        with pytest.raises(AnalysisError):
            percentile([], 50.0)

    def test_out_of_range_raises(self):
        with pytest.raises(AnalysisError):
            percentile([1.0], 101.0)


class TestSummarize:
    def test_counts_and_cache_ratio(self):
        summary = summarize_journal(_events())
        assert summary.runs_finished == 3
        assert summary.cache_hits == 1
        assert summary.cache_misses == 1
        assert summary.cache_hit_ratio == pytest.approx(0.5)
        assert summary.healthy

    def test_per_scenario_percentiles(self):
        rows = summary_to_dict(summarize_journal(_events()))["per_scenario"]
        a = next(s for s in rows if s["scenario"] == "a")
        assert a["runs"] == 2
        assert a["p50_wall_s"] == pytest.approx(0.2)
        assert a["max_wall_s"] == pytest.approx(0.3)

    def test_slowest_runs_ranked(self):
        summary = summarize_journal(_events(), slowest=2)
        assert [e["wall_s"] for e in summary.slowest] == [0.3, 0.2]

    def test_phase_totals(self):
        summary = summarize_journal(_events())
        sim = summary.phases["sim_loop"]
        assert sim.count == 3
        assert sim.total_wall_s == pytest.approx(0.3)

    def test_worker_errors_make_it_unhealthy(self):
        summary = summarize_journal(_events(errors=1))
        assert not summary.healthy
        assert summary.worker_errors[0]["error"] == "boom"


class TestCompleteness:
    """Killed and aborted sweeps must not summarize as healthy."""

    def test_fixture_sweep_is_complete(self):
        summary = summarize_journal(_events())
        assert summary.batches_started == 1
        assert summary.batches_finished == 1
        assert summary.complete
        assert not summary.aborted

    def test_missing_batch_finished_is_incomplete(self):
        # The journal of a coordinator killed mid-batch: batch_started
        # with no terminal event, plus a run that never finished.
        events = [
            {"event": "batch_started", "items": 2},
            {"event": "run_started", "item": 0, "scenario": "a", "seed": 0},
            {
                "event": "run_finished",
                "item": 0,
                "scenario": "a",
                "seed": 0,
                "wall_s": 0.1,
                "sim_time_s": 0.01,
                "energy_j": 1.0,
            },
            {"event": "run_started", "item": 1, "scenario": "a", "seed": 1},
        ]
        summary = summarize_journal(events)
        assert not summary.complete
        assert summary.in_flight == 1
        assert not summary.healthy
        text = format_report(summary)
        assert "INCOMPLETE" in text
        assert "likely killed" in text

    def test_batch_aborted_counts_as_terminal_but_unhealthy(self):
        events = [
            {"event": "batch_started", "items": 4},
            {
                "event": "batch_aborted",
                "items": 4,
                "completed": 1,
                "reason": "drift vs baseline: a/energy_j",
            },
        ]
        summary = summarize_journal(events)
        assert summary.complete  # the terminal event did arrive...
        assert summary.aborted  # ...but the sweep did not finish its work
        assert not summary.healthy
        assert summary.abort_reason == "drift vs baseline: a/energy_j"
        text = format_report(summary)
        assert "ABORTED" in text
        assert "drift vs baseline" in text

    def test_synthetic_journals_without_batches_stay_healthy(self):
        # Hand-built event streams (unit tests, external tools) carry no
        # batch framing: no batch is left open, so they are healthy,
        # but no batch ever started, so they are not complete (the one
        # definition obs watch waits on).
        summary = summarize_journal(
            [
                {
                    "event": "run_finished",
                    "scenario": "a",
                    "seed": 0,
                    "wall_s": 0.1,
                    "sim_time_s": 0.01,
                    "energy_j": 1.0,
                }
            ]
        )
        assert not summary.complete
        assert summary.healthy

    def test_dict_carries_completeness_fields(self):
        payload = summary_to_dict(summarize_journal(_events()))
        assert payload["complete"] is True
        assert payload["aborted"] is False
        assert payload["abort_reason"] == ""
        assert payload["batches_started"] == 1
        assert payload["batches_finished"] == 1
        assert payload["batches_aborted"] == 0
        assert payload["runs_in_flight"] == 0


class TestRendering:
    def test_text_report_has_sections(self):
        text = format_report(summarize_journal(_events()))
        assert "per-scenario wall time" in text
        assert "wall time by phase" in text
        assert "slowest runs" in text
        assert "UNHEALTHY" not in text

    def test_unhealthy_report_flags_errors(self):
        text = format_report(summarize_journal(_events(errors=2)))
        assert "worker errors" in text
        assert "UNHEALTHY" in text

    def test_dict_is_versioned(self):
        payload = summary_to_dict(summarize_journal(_events()))
        assert payload["version"] == 1
        assert payload["healthy"] is True
        assert payload["cache_hit_ratio"] == pytest.approx(0.5)
