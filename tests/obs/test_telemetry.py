"""Telemetry persistence: JSONL round-trips and canonical order (the read
errors every stream shares are ``tests/obs/test_stream.py``'s)."""

from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import run_once
from repro.obs.observer import TracingObserver
from repro.obs.telemetry import (
    TELEMETRY,
    TELEMETRY_FILENAME,
    TelemetryWriter,
    canonicalize_telemetry,
    read_telemetry,
    series_from_record,
    telemetry_records,
)
from repro.sim.probe import CWND_CHANNEL, QUEUE_DEPTH_CHANNEL, TimeSeriesProbeSink


def collected_sink():
    sink = TimeSeriesProbeSink()
    sink.sample(0.0, CWND_CHANNEL, "flow-1", 10.0)
    sink.sample(1.0, CWND_CHANNEL, "flow-1", 20.0)
    sink.sample(0.5, QUEUE_DEPTH_CHANNEL, "bottleneck", 3000.0)
    return sink


class TestTelemetryRecords:
    def test_one_record_per_stream_in_key_order(self):
        records = telemetry_records(collected_sink(), "fig1-fair", 3)
        assert [(r["channel"], r["entity"]) for r in records] == [
            (CWND_CHANNEL, "flow-1"),
            (QUEUE_DEPTH_CHANNEL, "bottleneck"),
        ]
        first = records[0]
        assert first["scenario"] == "fig1-fair"
        assert first["seed"] == 3
        assert first["times"] == [0.0, 1.0]
        assert first["values"] == [10.0, 20.0]


class TestTracedRun:
    def test_a_stream_keeps_one_sample_a_millisecond(self, tmp_path):
        # the traced default is 1 ms of virtual time per stream: no two
        # kept samples closer, and a busy queue is sampled about as often
        with TracingObserver(tmp_path) as obs:
            run_once(
                Scenario("traced", flows=[FlowSpec(4_000_000), FlowSpec(4_000_000)]),
                observer=obs,
            )
        (times,) = [
            record["times"]
            for record in read_telemetry(tmp_path)
            if (record["channel"], record["entity"])
            == (QUEUE_DEPTH_CHANNEL, "bottleneck")
        ]
        gaps = [later - earlier for earlier, later in zip(times, times[1:])]
        assert len(gaps) >= 3
        assert min(gaps) >= 1e-3
        assert min(gaps) < 2e-3


class TestWriterRoundTrip:
    def test_write_sink_then_read_back(self, tmp_path):
        path = tmp_path / TELEMETRY_FILENAME
        with TelemetryWriter(path) as writer:
            written = writer.write_sink(collected_sink(), "fig1-fair", 0)
        assert written == 2
        records = read_telemetry(path)
        assert records == telemetry_records(collected_sink(), "fig1-fair", 0)
        # a second writer appends to the same file
        with TelemetryWriter(path) as writer:
            writer.write_sink(collected_sink(), "b", 1)
        scenarios = [r["scenario"] for r in read_telemetry(path)]
        assert scenarios == ["fig1-fair", "fig1-fair", "b", "b"]


class TestSeriesFromRecord:
    def test_rebuilds_the_time_series(self):
        record = telemetry_records(collected_sink(), "s", 0)[0]
        series = series_from_record(record)
        assert series.name == "flow-1:cwnd_bytes"
        assert series.times == [0.0, 1.0]
        assert series.values == [10.0, 20.0]


class TestMergeWorkerTelemetry:
    def write_partial(self, trace, wid, scenario, seed):
        with TelemetryWriter(TELEMETRY.worker_path(trace, wid)) as writer:
            writer.write_sink(collected_sink(), scenario, seed)

    def test_merges_sorted_and_removes_partials(self, tmp_path):
        # Worker files written "out of order" relative to the sort key.
        self.write_partial(tmp_path, 0, "zeta", 1)
        self.write_partial(tmp_path, 1, "alpha", 0)
        with TelemetryWriter(tmp_path / TELEMETRY_FILENAME) as writer:
            TELEMETRY.merge_workers(tmp_path, into=writer)
        assert [r["scenario"] for r in read_telemetry(tmp_path)] == [
            "alpha", "alpha", "zeta", "zeta",
        ]
        assert list(tmp_path.glob("telemetry-worker-*.jsonl")) == []

    def test_no_partials_is_a_noop(self, tmp_path):
        with TelemetryWriter(tmp_path / TELEMETRY_FILENAME) as writer:
            TELEMETRY.merge_workers(tmp_path, into=writer)
        assert read_telemetry(tmp_path) == []


class TestCanonicalize:
    def test_sorts_file_into_key_order(self, tmp_path):
        path = tmp_path / TELEMETRY_FILENAME
        with TelemetryWriter(path) as writer:
            writer.write_sink(collected_sink(), "zeta", 1)
            writer.write_sink(collected_sink(), "alpha", 0)
        before = path.read_bytes()
        assert canonicalize_telemetry(tmp_path) == 4
        assert path.read_bytes() != before
        scenarios = [r["scenario"] for r in read_telemetry(path)]
        assert scenarios == ["alpha", "alpha", "zeta", "zeta"]
        # idempotent: a second pass changes nothing
        after = path.read_bytes()
        canonicalize_telemetry(tmp_path)
        assert path.read_bytes() == after

    def test_missing_file_is_a_noop(self, tmp_path):
        assert canonicalize_telemetry(tmp_path) == 0
