"""Telemetry persistence: records in key order, JSONL round-trips and
the traced sampling interval (the read errors, worker merges and
canonical rewrites every stream shares are ``tests/obs/test_stream.py``'s)."""

from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import run_once
from repro.obs.observer import TracingObserver
from repro.obs.telemetry import (
    TELEMETRY_FILENAME,
    TelemetryWriter,
    read_telemetry,
    telemetry_records,
)
from repro.sim.probe import CWND_CHANNEL, QUEUE_DEPTH_CHANNEL, TimeSeriesProbeSink


def collected_sink():
    sink = TimeSeriesProbeSink()
    sink.sample(0.0, CWND_CHANNEL, "flow-1", 10.0)
    sink.sample(1.0, CWND_CHANNEL, "flow-1", 20.0)
    sink.sample(0.5, QUEUE_DEPTH_CHANNEL, "bottleneck", 3000.0)
    return sink


class TestTelemetry:
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
