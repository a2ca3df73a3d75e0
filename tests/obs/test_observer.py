"""Observer hierarchy: no-op default, journal-backed, tracing coordinator."""

import pytest

from repro.harness.executor import WorkItem, run_work_items
from repro.harness.experiment import FlowSpec, Scenario
from repro.obs.journal import JournalWriter, read_journal
from repro.obs.report import summarize_journal
from repro.obs.observer import (
    NULL_OBSERVER,
    JournalObserver,
    Observer,
    TracingObserver,
)
from repro.obs.telemetry import read_telemetry


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

    def test_building_one_deletes_the_last_runs_records(self, tmp_path):
        # Every record stream and any unmerged worker partial (a killed
        # run's) goes; the abort flag and other files stay.
        trace = tmp_path / "trace"
        trace.mkdir()
        stale = (
            "journal.jsonl", "worker-7.jsonl",
            "telemetry.jsonl", "telemetry-worker-7.jsonl",
            "profile.jsonl", "profile-worker-7.jsonl",
        )
        for name in stale + ("abort.requested", "notes.txt"):
            (trace / name).write_text('{"event": "stale"}\n')
        with TracingObserver(trace) as obs:
            obs.emit("fresh")
        assert sorted(p.name for p in trace.iterdir()) == [
            "abort.requested", "journal.jsonl", "notes.txt",
            "telemetry.jsonl",
        ]
        assert [e["event"] for e in read_journal(trace)] == ["fresh"]

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

    def test_one_observer_journals_every_batch_it_is_given(self, tmp_path):
        # The owner of an observer may hand it to several batches: each
        # is journaled in turn, and close puts the canonical streams in
        # order across all of them (seed 1 ran before seed 0 here).
        scenario = Scenario(name="s", flows=[FlowSpec(100_000)], packages=1)
        trace = tmp_path / "trace"
        with TracingObserver(trace) as obs:
            run_work_items([WorkItem(scenario, 1)], observer=obs)
            run_work_items(
                [WorkItem(scenario, 0), WorkItem(scenario, 2)],
                jobs=2, observer=obs,
            )
        counts = summarize_journal(read_journal(trace)).event_counts
        assert counts["batch_started"] == counts["batch_finished"] == 2
        assert counts["run_finished"] == 3
        seeds = [record["seed"] for record in read_telemetry(trace)]
        assert seeds == sorted(seeds) and set(seeds) == {0, 1, 2}


class TestResolve:
    """Who owns a trace directory: whoever builds its observer."""

    def test_a_figure_driver_given_a_directory_leaves_only_the_streams(
        self, tmp_path
    ):
        # The driver is handed the directory as an observer and its
        # owner closes it; the closed directory holds the last run's
        # streams alone, whatever an earlier run left there.
        trace = tmp_path / "t"
        for _ in range(2):
            with TracingObserver(trace) as obs:
                _fig1(obs)
        assert sorted(p.name for p in trace.iterdir()) == [
            "journal.jsonl", "telemetry.jsonl",
        ]
        events = [e["event"] for e in read_journal(trace)]
        assert events.count("sweep_started") == 1

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
