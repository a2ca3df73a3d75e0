"""The telemetry probe-sink protocol: collection and downsampling."""

import pytest

from repro.sim.probe import (
    CWND_CHANNEL,
    NULL_PROBE_SINK,
    QUEUE_DEPTH_CHANNEL,
    ProbeSink,
    TimeSeriesProbeSink,
)


class TestNullSink:
    def test_disabled_and_swallows_samples(self):
        assert NULL_PROBE_SINK.enabled is False
        NULL_PROBE_SINK.sample(0.0, CWND_CHANNEL, "flow-1", 1.0)  # no-op

    def test_base_class_is_the_noop(self):
        assert isinstance(NULL_PROBE_SINK, ProbeSink)
        assert type(NULL_PROBE_SINK) is ProbeSink


class TestTimeSeriesSink:
    def test_collects_per_channel_entity_streams(self):
        sink = TimeSeriesProbeSink()
        sink.sample(0.0, CWND_CHANNEL, "flow-1", 10.0)
        sink.sample(1.0, CWND_CHANNEL, "flow-1", 20.0)
        sink.sample(0.5, CWND_CHANNEL, "flow-2", 5.0)
        sink.sample(0.5, QUEUE_DEPTH_CHANNEL, "bottleneck", 9000.0)
        assert len(sink) == 3
        series = sink.series(CWND_CHANNEL, "flow-1")
        assert series.times == [0.0, 1.0]
        assert series.values == [10.0, 20.0]
        assert series.name == "flow-1:cwnd_bytes"

    def test_enabled_by_construction(self):
        assert TimeSeriesProbeSink().enabled is True

    def test_unknown_stream_reads_empty(self):
        sink = TimeSeriesProbeSink()
        assert len(sink.series(CWND_CHANNEL, "flow-9")) == 0

    def test_channels_sorted_distinct(self):
        sink = TimeSeriesProbeSink()
        sink.sample(0.0, QUEUE_DEPTH_CHANNEL, "bottleneck", 1.0)
        sink.sample(0.0, CWND_CHANNEL, "flow-1", 1.0)
        sink.sample(1.0, CWND_CHANNEL, "flow-2", 1.0)
        assert sink.channels() == [CWND_CHANNEL, QUEUE_DEPTH_CHANNEL]

    def test_items_in_key_order(self):
        sink = TimeSeriesProbeSink()
        sink.sample(0.0, QUEUE_DEPTH_CHANNEL, "bottleneck", 1.0)
        sink.sample(0.0, CWND_CHANNEL, "flow-2", 1.0)
        sink.sample(0.0, CWND_CHANNEL, "flow-1", 1.0)
        keys = [key for key, _series in sink.items()]
        assert keys == sorted(keys)

    def test_downsampling_keeps_interval_spaced_samples(self):
        sink = TimeSeriesProbeSink(min_interval_s=1.0)
        for i in range(10):
            sink.sample(i * 0.25, CWND_CHANNEL, "flow-1", float(i))
        series = sink.series(CWND_CHANNEL, "flow-1")
        # t=0.0 kept, then every >= 1.0s later: 1.0, 2.0
        assert series.times == [0.0, 1.0, 2.0]

    def test_downsampling_is_per_stream(self):
        sink = TimeSeriesProbeSink(min_interval_s=1.0)
        sink.sample(0.0, CWND_CHANNEL, "flow-1", 1.0)
        # a different stream keeps its own clock
        sink.sample(0.1, CWND_CHANNEL, "flow-2", 2.0)
        assert len(sink.series(CWND_CHANNEL, "flow-2")) == 1

    def test_zero_interval_keeps_everything(self):
        sink = TimeSeriesProbeSink(min_interval_s=0.0)
        sink.sample(0.0, CWND_CHANNEL, "flow-1", 1.0)
        sink.sample(0.0, CWND_CHANNEL, "flow-1", 2.0)
        assert len(sink.series(CWND_CHANNEL, "flow-1")) == 2

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError, match="min_interval_s"):
            TimeSeriesProbeSink(min_interval_s=-1.0)

    def test_nan_interval_rejected(self):
        # accepted, a NaN interval would keep every sample: every
        # comparison against it is false
        with pytest.raises(ValueError, match="min_interval_s"):
            TimeSeriesProbeSink(min_interval_s=float("nan"))

