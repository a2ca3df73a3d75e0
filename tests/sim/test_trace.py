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

    def test_equal_times_allowed(self):
        ts = TimeSeries("x")
        ts.record(1.0, 1.0)
        ts.record(1.0, 2.0)
        assert len(ts) == 2

    def test_mean(self):
        ts = TimeSeries("x")
        for i, v in enumerate((2.0, 4.0, 6.0)):
            ts.record(float(i), v)
        assert ts.mean() == pytest.approx(4.0)

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            TimeSeries("x").mean()

    def test_last(self):
        ts = TimeSeries("x")
        ts.record(0.0, 5.0)
        ts.record(1.0, 7.0)
        assert ts.last == 7.0

    def test_window(self):
        ts = TimeSeries("x")
        for i in range(5):
            ts.record(float(i), float(i * 10))
        w = ts.window(1.0, 3.0)
        assert list(w) == [(1.0, 10.0), (2.0, 20.0)]

    def test_integrate_constant(self):
        """Integrating constant power gives power x time (RAPL semantics)."""
        ts = TimeSeries("power")
        for i in range(11):
            ts.record(i * 0.1, 30.0)
        assert ts.integrate() == pytest.approx(30.0 * 1.0)

    def test_integrate_linear_ramp(self):
        ts = TimeSeries("power")
        ts.record(0.0, 0.0)
        ts.record(2.0, 10.0)
        assert ts.integrate() == pytest.approx(10.0)  # triangle area

    def test_value_at_step_semantics(self):
        ts = TimeSeries("x")
        ts.record(0.0, 1.0)
        ts.record(2.0, 5.0)
        assert ts.value_at(1.0) == 1.0
        assert ts.value_at(2.0) == 5.0
        with pytest.raises(ValueError):
            ts.value_at(-0.5)

    def test_resample_bins(self):
        ts = TimeSeries("x")
        for i in range(10):
            ts.record(i * 0.1, float(i))
        binned = ts.resample(0.5)
        assert len(binned) == 2
        assert binned.values[0] == pytest.approx((0 + 1 + 2 + 3 + 4) / 5)

    def test_resample_invalid_interval(self):
        with pytest.raises(ValueError):
            TimeSeries("x").resample(0.0)


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
