"""Observer hierarchy: no-op default, journal-backed, tracing coordinator."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.journal import JournalWriter, read_journal
from repro.obs.report import summarize_journal
from repro.obs.observer import (
    NULL_OBSERVER,
    JournalObserver,
    Observer,
    TracingObserver,
    resolve_observer,
)


class TestNullObserver:
    def test_disabled_and_inert(self):
        obs = Observer()
        assert obs.enabled is False
        assert obs.trace_dir is None
        obs.emit("run_started", scenario="s")
        obs.collect_workers()
        obs.close()

    def test_span_is_shared_noop(self):
        with NULL_OBSERVER.span("sim_loop") as span:
            span.add(events_executed=5)
        assert span.wall_s == 0.0
        assert NULL_OBSERVER.span("a") is NULL_OBSERVER.span("b")


class TestJournalObserver:
    def test_emit_writes_events(self, tmp_path):
        with JournalObserver(tmp_path / "j.jsonl", worker=5) as obs:
            obs.emit("run_started", scenario="s", seed=1)
        events = read_journal(tmp_path / "j.jsonl")
        assert events[0]["event"] == "run_started"
        assert events[0]["worker"] == 5

    def test_span_times_and_journals(self, tmp_path):
        with JournalObserver(tmp_path / "j.jsonl") as obs:
            with obs.span("sim_loop", scenario="s") as span:
                span.add(events_executed=42)
        assert span.wall_s > 0.0
        record = read_journal(tmp_path / "j.jsonl")[0]
        assert record["event"] == "span"
        assert record["phase"] == "sim_loop"
        assert record["events_executed"] == 42
        assert record["wall_s"] == pytest.approx(span.wall_s)


class TestTracingObserver:
    def test_creates_dir_and_leaves_only_the_streams_on_close(self, tmp_path):
        trace = tmp_path / "trace"
        with TracingObserver(trace) as obs:
            obs.emit("run_finished", scenario="s")
            obs.emit(
                "span", phase="sim_loop", wall_s=0.5, events_executed=500,
                pending_events=3, dead_in_queue=1, queued_events=4,
            )
        assert sorted(p.name for p in trace.iterdir()) == [
            "journal.jsonl", "telemetry.jsonl",
        ]
        span = read_journal(trace)[-1]
        assert span["events_executed"] == 500
        assert span["pending_events"] == 3

    def test_collect_workers_merges_and_counts(self, tmp_path):
        trace = tmp_path / "trace"
        obs = TracingObserver(trace)
        with JournalWriter(trace / "worker-9.jsonl", worker=9) as worker:
            worker.write("run_finished", item=0, scenario="s")
        obs.collect_workers()
        obs.close()
        events = read_journal(trace)
        assert any(
            e["event"] == "run_finished" and e["worker"] == 9 for e in events
        )
        assert list(trace.glob("worker-*.jsonl")) == []
        assert summarize_journal(events).runs_finished == 1


class TestResolve:
    def test_none_is_the_shared_noop(self):
        assert resolve_observer(None) is NULL_OBSERVER

    def test_path_builds_tracing_observer(self, tmp_path):
        obs = resolve_observer(tmp_path / "trace")
        try:
            assert isinstance(obs, TracingObserver)
            assert obs.enabled
        finally:
            obs.close()

    def test_observer_passes_through(self):
        assert resolve_observer(NULL_OBSERVER) is NULL_OBSERVER

    def test_bad_type_raises(self):
        with pytest.raises(ObservabilityError):
            resolve_observer(42)

    def test_a_figure_driver_given_a_directory_leaves_only_the_streams(
        self, tmp_path
    ):
        # Whoever resolves a trace directory closes it: the driver does.
        _fig1(str(tmp_path / "t"))
        assert sorted(p.name for p in (tmp_path / "t").iterdir()) == [
            "journal.jsonl", "telemetry.jsonl",
        ]

    def test_a_passed_observer_stays_open(self, tmp_path):
        # ...and a driver handed an open observer leaves it open for
        # its owner.
        with TracingObserver(tmp_path / "t") as obs:
            _fig1(obs)
            obs.emit("note")  # still writable after the driver returned
        assert read_journal(tmp_path / "t")[-1]["event"] == "note"


def _fig1(observer):
    from repro.figures.fig1 import run_fig1

    return run_fig1(
        transfer_bytes=200_000, repetitions=1, fractions=(0.5,),
        observer=observer,
    )
