"""Tracing must be a pure spectator: same results, same events, any jobs.

Three contracts from the observability design:

* measurements are bit-identical with tracing on or off, serial or
  process-pool — the observer only ever receives copies,
* the *deterministic* journal fields (everything except the volatile
  wall-clock/worker set) are the same whether one worker or four
  produced them, once the merge has put events back in submission
  order, and
* telemetry collection (the in-sim probe sinks behind telemetry.jsonl)
  perturbs nothing: traced-with-telemetry runs equal untraced ones, and
  the telemetry records themselves are identical between jobs=1 and
  jobs=4 once merged.
"""

import pytest

from repro.errors import ExperimentError
from repro.harness.cache import ResultCache
from repro.harness.executor import WorkItem, run_work_items
from repro.harness.experiment import FlowSpec, Scenario
from repro.obs.journal import VOLATILE_FIELDS, read_journal
from repro.obs.observer import TracingObserver
from repro.obs.report import summarize_journal
from repro.obs.telemetry import read_telemetry

SIZE = 400_000


def tiny_scenario(name="trace", **overrides):
    defaults = dict(name=name, flows=[FlowSpec(SIZE)], packages=1)
    defaults.update(overrides)
    return Scenario(**defaults)


def items_for(n=4):
    scenario = tiny_scenario()
    return [WorkItem(scenario=scenario, seed=seed) for seed in range(n)]


def run_traced(trace, items, **kwargs):
    """One batch traced into ``trace``, its observer closed after."""
    with TracingObserver(trace) as obs:
        return run_work_items(items, observer=obs, **kwargs)


def stable_events(journal_source):
    """Journal events with the volatile diagnostics stripped."""
    return [
        {k: v for k, v in event.items() if k not in VOLATILE_FIELDS}
        for event in read_journal(journal_source)
    ]


class TestTracedResultsAreUntouched:
    def test_traced_serial_equals_untraced(self, tmp_path):
        plain = run_work_items(items_for())
        traced = run_traced(tmp_path / "t", items_for())
        assert traced == plain

    def test_traced_jobs4_equals_untraced_serial(self, tmp_path):
        plain = run_work_items(items_for())
        traced = run_traced(tmp_path / "t", items_for(), jobs=4)
        assert traced == plain


def telemetry_key(record):
    return (record["scenario"], record["seed"], record["channel"], record["entity"])


class TestTelemetryDeterminism:
    """telemetry.jsonl: same records any jobs, and never a perturbation."""

    def test_traced_telemetry_jobs4_equals_untraced_serial(self, tmp_path):
        # The acceptance bar: running with telemetry collection on and a
        # process pool must reproduce the untraced serial measurements
        # bit for bit.
        plain = run_work_items(items_for())
        traced = run_traced(tmp_path / "t", items_for(), jobs=4)
        assert traced == plain

    def test_jobs1_and_jobs4_write_identical_records(self, tmp_path):
        run_traced(tmp_path / "serial", items_for(), jobs=1)
        run_traced(tmp_path / "pool", items_for(), jobs=4)
        serial = sorted(read_telemetry(tmp_path / "serial"), key=telemetry_key)
        pool = sorted(read_telemetry(tmp_path / "pool"), key=telemetry_key)
        assert serial == pool
        # Stronger: the closed files are canonicalized into key order,
        # so the traces are byte-identical, not just record-identical.
        assert (
            (tmp_path / "serial" / "telemetry.jsonl").read_bytes()
            == (tmp_path / "pool" / "telemetry.jsonl").read_bytes()
        )

    def test_expected_channels_are_recorded(self, tmp_path):
        run_traced(tmp_path / "t", items_for(1))
        records = read_telemetry(tmp_path / "t")
        channels = {r["channel"] for r in records}
        assert {
            "cwnd_bytes",
            "srtt_s",
            "retransmits",
            "queue_depth_bytes",
            "power_w",
            "energy_j",
        } <= channels
        entities = {r["entity"] for r in records}
        assert "flow-1" in entities
        assert "bottleneck" in entities
        for record in records:
            assert record["scenario"] == "trace"
            assert len(record["times"]) == len(record["values"])

    def test_telemetry_partials_are_merged_away(self, tmp_path):
        run_traced(tmp_path / "t", items_for(), jobs=4)
        trace = tmp_path / "t"
        assert list(trace.glob("telemetry-worker-*.jsonl")) == []
        assert (trace / "telemetry.jsonl").exists()

    def test_cache_hits_skip_telemetry(self, tmp_path):
        # A replayed measurement never re-simulates, so it contributes
        # no telemetry — documented behavior, pinned here.
        cache = ResultCache(tmp_path / "cache")
        run_work_items(items_for(), cache=cache)
        run_traced(tmp_path / "t", items_for(), cache=cache)
        assert read_telemetry(tmp_path / "t") == []


class TestJournalDeterminism:
    def test_jobs1_and_jobs4_produce_the_same_event_set(self, tmp_path):
        run_traced(tmp_path / "serial", items_for(), jobs=1)
        run_traced(tmp_path / "pool", items_for(), jobs=4)
        # The backend name on batch_started is execution config, the
        # one field that legitimately differs between the two runs.
        serial = [
            {k: v for k, v in e.items() if k != "backend"}
            for e in stable_events(tmp_path / "serial")
        ]
        pool = [
            {k: v for k, v in e.items() if k != "backend"}
            for e in stable_events(tmp_path / "pool")
        ]
        assert len(serial) == len(pool)
        # Order-normalised equality: the merge restores submission
        # order, but batch-level events may interleave differently.
        key = lambda e: sorted((k, repr(v)) for k, v in e.items())  # noqa: E731
        assert sorted(serial, key=key) == sorted(pool, key=key)
        # Both journals carry the engine's sim_loop spans with their
        # heap fields, the pooled one through the workers' partials...
        for events in (serial, pool):
            loops = [
                e for e in events
                if e["event"] == "span" and e["phase"] == "sim_loop"
            ]
            assert len(loops) == 4
            for loop in loops:
                assert loop["events_executed"] > 0
                for name in ("pending_events", "dead_in_queue", "queued_events"):
                    assert isinstance(loop[name], int)
        # ...and the one fold of the journal counts the same events.
        serial_counts, pool_counts = (
            summarize_journal(read_journal(tmp_path / name)).event_counts
            for name in ("serial", "pool")
        )
        assert serial_counts["run_finished"] == 4
        assert serial_counts == pool_counts

    def test_run_events_carry_deterministic_payload(self, tmp_path):
        run_traced(tmp_path / "t", items_for(2))
        finished = [
            e for e in stable_events(tmp_path / "t")
            if e["event"] == "run_finished"
        ]
        assert [e["item"] for e in finished] == [0, 1]
        for event in finished:
            assert event["scenario"] == "trace"
            assert isinstance(event["cache_key"], str)
            assert event["energy_j"] > 0
            assert "bottleneck_drops" in event["counters"]

    def test_worker_partials_are_merged_away(self, tmp_path):
        run_traced(tmp_path / "t", items_for(), jobs=4)
        trace = tmp_path / "t"
        assert list(trace.glob("worker-*.jsonl")) == []
        assert (trace / "journal.jsonl").exists()


class TestCacheEvents:
    def test_hits_and_misses_are_journaled(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_work_items(items_for(), cache=cache)
        run_traced(tmp_path / "t", items_for(), cache=cache)
        events = stable_events(tmp_path / "t")
        hits = [e for e in events if e["event"] == "cache_hit"]
        assert len(hits) == 4
        assert not any(e["event"] == "cache_miss" for e in events)
        batch = next(e for e in events if e["event"] == "batch_finished")
        assert batch["cache_hits"] == 4
        assert batch["executed"] == 0


class TestWorkerErrorEvents:
    def test_failure_is_journaled_then_raised_with_context(self, tmp_path):
        # An impossible time limit makes the run abort mid-simulation.
        bad = Scenario(
            name="doomed",
            flows=[FlowSpec(SIZE)],
            packages=1,
            time_limit_s=1e-6,
        )
        items = [WorkItem(scenario=bad, seed=3)]
        with pytest.raises(ExperimentError) as excinfo:
            run_traced(tmp_path / "t", items)
        message = str(excinfo.value)
        assert "doomed" in message
        assert "seed=3" in message
        assert "worker pid=" in message
        errors = [
            e for e in stable_events(tmp_path / "t")
            if e["event"] == "worker_error"
        ]
        assert len(errors) == 1
        assert errors[0]["scenario"] == "doomed"
        assert errors[0]["seed"] == 3

    def test_pool_failure_still_merges_worker_journals(self, tmp_path):
        bad = Scenario(
            name="doomed",
            flows=[FlowSpec(SIZE)],
            packages=1,
            time_limit_s=1e-6,
        )
        items = [WorkItem(scenario=tiny_scenario(), seed=0),
                 WorkItem(scenario=bad, seed=1)]
        with pytest.raises(ExperimentError):
            run_traced(tmp_path / "t", items, jobs=2)
        events = stable_events(tmp_path / "t")
        assert any(e["event"] == "worker_error" for e in events)
        assert list((tmp_path / "t").glob("worker-*.jsonl")) == []
