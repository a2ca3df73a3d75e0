"""Live tailing, merge dedup, and the drift gate."""

import pytest

from repro.errors import ObservabilityError
from repro.harness.executor import WorkItem, run_work_items
from repro.harness.experiment import FlowSpec, Scenario
from repro.obs.baseline import snapshot_from_journal
from repro.obs.journal import (
    ABORT_FILENAME,
    JOURNAL_FILENAME,
    JournalWriter,
    read_journal,
)
from repro.obs.live import (
    DriftGate,
    JournalTail,
    LiveSweepView,
    request_abort,
)
from repro.obs.observer import TracingObserver


class TestJournalTail:
    def test_polls_incrementally(self, tmp_path):
        path = tmp_path / "j.jsonl"
        tail = JournalTail(path)
        assert tail.poll() == []  # missing file is "nothing yet"
        path.write_text('{"event": "a"}\n')
        assert [e["event"] for e in tail.poll()] == ["a"]
        assert tail.poll() == []
        with path.open("a") as handle:
            handle.write('{"event": "b"}\n{"event": "c"}\n')
        assert [e["event"] for e in tail.poll()] == ["b", "c"]

    def test_torn_tail_held_back_until_committed(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"event": "a"}\n{"event": "b"}')
        tail = JournalTail(path)
        assert [e["event"] for e in tail.poll()] == ["a"]
        with path.open("a") as handle:
            handle.write("\n")
        assert [e["event"] for e in tail.poll()] == ["b"]
        assert tail.bad_lines == 0

    def test_terminated_garbage_is_counted_not_raised(self, tmp_path):
        # A live tailer cannot crash the watch screen on a producer bug;
        # the strict read (obs report) does the post-mortem.
        path = tmp_path / "j.jsonl"
        path.write_text('not json\n{"event": "a"}\n{"no_event": 1}\n')
        tail = JournalTail(path)
        assert [e["event"] for e in tail.poll()] == ["a"]
        assert tail.bad_lines == 2


def _record(event, worker, **fields):
    record = {"event": event, "t_wall": 1.0, "worker": worker}
    record.update(fields)
    return record


class TestLiveSweepView:
    """Dedup between worker partials and the coordinator merge."""

    COORD = 111
    WORKER = 222

    def _trace(self, tmp_path):
        trace = tmp_path / "trace"
        trace.mkdir()
        # The journal's first event is always coordinator-written.
        with JournalWriter(trace / JOURNAL_FILENAME, worker=self.COORD) as j:
            j.write("batch_started", items=2)
        return trace

    def _run_records(self, item, seed=0):
        return [
            _record(
                "run_started", self.WORKER, item=item, scenario="s", seed=seed
            ),
            _record(
                "run_finished", self.WORKER, item=item, scenario="s",
                seed=seed, wall_s=0.1, sim_time_s=0.01, energy_j=1.0,
            ),
        ]

    def test_missing_trace_dir_raises(self, tmp_path):
        with pytest.raises(ObservabilityError, match="no trace directory"):
            LiveSweepView(tmp_path / "absent")

    def test_partial_then_merge_counts_once(self, tmp_path):
        trace = self._trace(tmp_path)
        view = LiveSweepView(trace)
        view.poll()
        records = self._run_records(0)
        with JournalWriter(
            trace / f"worker-{self.WORKER}.jsonl", worker=self.WORKER
        ) as partial:
            for record in records:
                partial.write_record(record)
        assert len(view.poll()) == 2  # fresh, from the partial
        # The coordinator now merges the same records verbatim into the
        # main journal (and unlinks the partial).
        with JournalWriter(trace / JOURNAL_FILENAME, worker=self.COORD) as j:
            for record in records:
                j.write_record(record)
            j.write("batch_finished", items=2, executed=1, cache_hits=0)
        (trace / f"worker-{self.WORKER}.jsonl").unlink()
        fresh = view.poll()
        assert [e["event"] for e in fresh] == ["batch_finished"]
        assert view.snapshot().runs_finished == 1

    def test_merge_then_partial_counts_once(self, tmp_path):
        # The race can land the other way: the merged journal line is
        # read before the worker partial's copy.
        trace = self._trace(tmp_path)
        view = LiveSweepView(trace)
        view.poll()
        records = self._run_records(0)
        with JournalWriter(trace / JOURNAL_FILENAME, worker=self.COORD) as j:
            for record in records:
                j.write_record(record)
        assert len(view.poll()) == 2  # counted from the merged journal
        with JournalWriter(
            trace / f"worker-{self.WORKER}.jsonl", worker=self.WORKER
        ) as partial:
            for record in records:
                partial.write_record(record)
        assert view.poll() == []  # the partial's copies are duplicates
        assert view.snapshot().runs_finished == 1

    def test_coordinator_events_never_deduped(self, tmp_path):
        trace = self._trace(tmp_path)
        view = LiveSweepView(trace)
        view.poll()
        with JournalWriter(trace / JOURNAL_FILENAME, worker=self.COORD) as j:
            j.write("cache_hit", item=0, scenario="s", seed=0)
            j.write("batch_finished", items=2, executed=0, cache_hits=1)
        assert len(view.poll()) == 2
        progress = view.snapshot()
        assert progress.cache_hits == 1
        assert progress.complete

    def test_on_event_sees_deduped_stream(self, tmp_path):
        trace = self._trace(tmp_path)
        seen = []
        view = LiveSweepView(trace, on_event=seen.append)
        view.poll()
        records = self._run_records(0)
        with JournalWriter(trace / JOURNAL_FILENAME, worker=self.COORD) as j:
            for record in records:
                j.write_record(record)
        view.poll()
        with JournalWriter(
            trace / f"worker-{self.WORKER}.jsonl", worker=self.WORKER
        ) as partial:
            for record in records:
                partial.write_record(record)
        view.poll()
        finished = [e for e in seen if e["event"] == "run_finished"]
        assert len(finished) == 1

    def test_request_abort_writes_flag(self, tmp_path):
        trace = self._trace(tmp_path)
        flag = request_abort(trace, "because the test says so")
        assert flag == trace / ABORT_FILENAME
        assert flag.read_text().startswith("because the test says so")


def _journal_events(scenarios):
    """Synthetic run_finished events: {scenario: [energies...]}."""
    events = []
    for scenario, energies in scenarios.items():
        for seed, energy in enumerate(energies):
            events.append(
                {
                    "event": "run_finished",
                    "scenario": scenario,
                    "seed": seed,
                    "energy_j": energy,
                    "sim_time_s": 0.01,
                    "counters": {"retransmissions": 0, "bottleneck_drops": 0},
                    "extras": {},
                }
            )
    return events


class TestDriftGate:
    def _baseline(self):
        return snapshot_from_journal(
            _journal_events({"x-fair": [1.0, 1.0], "x-slow": [0.8, 0.8]})
        )

    def test_no_drift_when_scenarios_match(self):
        gate = DriftGate(self._baseline(), repetitions=2)
        for event in _journal_events(
            {"x-fair": [1.0, 1.0], "x-slow": [0.8, 0.8]}
        ):
            gate.observe_event(event)
        assert gate.settled == ["x-fair", "x-slow"]
        assert not gate.drifted

    def test_unsettled_scenarios_do_not_gate(self):
        # One of two repetitions seen: nothing is comparable yet, even
        # though the half-seen mean would look like drift.
        gate = DriftGate(self._baseline(), repetitions=2)
        for event in _journal_events({"x-slow": [2.0]}):
            gate.observe_event(event)
        assert gate.settled == []
        assert not gate.drifted

    def test_drift_latches_the_first_reason(self):
        gate = DriftGate(self._baseline(), repetitions=2)
        for event in _journal_events({"x-slow": [1.6, 1.6]}):
            gate.observe_event(event)
        assert gate.drifted
        assert "x-slow/energy_j" in gate.reason
        assert all(row.gating for row in gate.gating_rows)
        first = gate.reason
        for event in _journal_events({"x-fair": [3.0, 3.0]}):
            gate.observe_event(event)
        assert gate.reason == first

    def test_savings_metric_waits_for_the_fair_sibling(self):
        # x-slow settles first with energies matching the baseline; its
        # savings_vs_fair_percent row must not gate (as "missing") until
        # x-fair settles too.
        gate = DriftGate(self._baseline(), repetitions=2)
        for event in _journal_events({"x-slow": [0.8, 0.8]}):
            gate.observe_event(event)
        assert gate.settled == ["x-slow"]
        assert not gate.drifted
        for event in _journal_events({"x-fair": [1.0, 1.0]}):
            gate.observe_event(event)
        assert not gate.drifted

    def test_savings_drift_detected_once_both_settle(self):
        # Same per-scenario energies relative shape, but the fair arm
        # got cheaper: the savings percentage moves and must gate.
        gate = DriftGate(self._baseline(), repetitions=2)
        for event in _journal_events(
            {"x-slow": [0.8, 0.8], "x-fair": [0.9, 0.9]}
        ):
            gate.observe_event(event)
        assert gate.drifted
        assert any(
            "savings_vs_fair_percent" in row.key or "energy_j" in row.key
            for row in gate.gating_rows
        )

    def test_learns_repetitions_from_sweep_started(self):
        gate = DriftGate(self._baseline())
        assert gate.repetitions is None
        gate.observe_event(
            {"event": "sweep_started", "repetitions": 2, "grid_points": 2}
        )
        assert gate.repetitions == 2
        for event in _journal_events({"x-slow": [1.6, 1.6]}):
            gate.observe_event(event)
        assert gate.drifted

    def test_measurement_summary_is_the_journal_record(self, tmp_path):
        # The in-process gate is fed RunMeasurement.summary(); a traced
        # run journals the same fields, so both feeds gate alike.
        item = WorkItem(
            Scenario("x-slow", flows=[FlowSpec(200_000)], packages=1), seed=0
        )
        with TracingObserver(tmp_path / "trace") as obs:
            [measurement] = run_work_items([item], observer=obs)
        [event] = [
            e for e in read_journal(tmp_path / "trace")
            if e["event"] == "run_finished"
        ]
        summary = measurement.summary()
        assert {key: event[key] for key in summary} == summary

    def test_extra_scenarios_are_new_not_gating(self):
        gate = DriftGate(self._baseline(), repetitions=2)
        for event in _journal_events({"y-fresh": [3.0, 3.0]}):
            gate.observe_event(event)
        assert gate.settled == ["y-fresh"]
        assert not gate.drifted
