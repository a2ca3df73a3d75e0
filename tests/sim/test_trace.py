"""Unit tests for time series and counters."""

import pytest

from repro.sim.trace import CounterSet, TimeSeries


class TestTimeSeries:
    def test_record_and_len(self):
        ts = TimeSeries("x")
        ts.record(0.0, 1.0)
        ts.record(1.0, 2.0)
        assert len(ts) == 2
        assert list(ts) == [(0.0, 1.0), (1.0, 2.0)]

    def test_time_must_not_go_backwards(self):
        ts = TimeSeries("x")
        ts.record(1.0, 0.0)
        with pytest.raises(ValueError):
            ts.record(0.5, 0.0)

    def test_nan_time_rejected(self):
        # a NaN compares false, so a "went backwards" test written as
        # time < last would let it in, and an earlier time after it,
        # leaving times window() cannot bisect
        ts = TimeSeries("x")
        ts.record(1.0, 0.0)
        for time in (float("nan"), 0.5):
            with pytest.raises(ValueError):
                ts.record(time, 0.0)
        assert ts.times == [1.0]
        with pytest.raises(ValueError):
            TimeSeries("y").record(float("nan"), 0.0)

    def test_equal_times_allowed(self):
        ts = TimeSeries("x")
        ts.record(1.0, 1.0)
        ts.record(1.0, 2.0)
        assert len(ts) == 2

    def test_window(self):
        ts = TimeSeries("x")
        for i in range(5):
            ts.record(float(i), float(i * 10))
        w = ts.window(1.0, 3.0)
        assert list(w) == [(1.0, 10.0), (2.0, 20.0)]


class TestCounterSet:
    def test_default_zero(self):
        counters = CounterSet()
        assert counters.get("never") == 0.0
        assert "never" not in counters

    def test_add_and_get(self):
        counters = CounterSet()
        counters.add("drops")
        counters.add("drops", 2)
        assert counters.get("drops") == 3.0
        assert "drops" in counters

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            CounterSet().add("x", -1)

    def test_snapshot_is_copy(self):
        counters = CounterSet()
        counters.add("a", 1)
        snap = counters.snapshot()
        counters.add("a", 1)
        assert snap["a"] == 1.0

    def test_item_update_is_the_unchecked_increment(self):
        """Per-packet code writes ``counters[name] += n``; reading an
        unknown name gives 0.0 without creating it."""
        counters = CounterSet()
        assert counters["never"] == 0.0
        assert "never" not in counters and counters.snapshot() == {}
        counters["bytes"] += 1500
        counters["bytes"] += 40
        assert counters.get("bytes") == 1540.0
        assert isinstance(counters["bytes"], float)
        assert type(counters.snapshot()) is dict
