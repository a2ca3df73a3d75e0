"""Unit tests for the windowed max filter."""

import pytest

from repro.cc.filters import WindowedFilter


class TestMaxFilter:
    def test_tracks_max(self):
        f = WindowedFilter(window_s=10.0)
        for t, v in [(0, 5), (1, 3), (2, 8), (3, 2)]:
            f.update(float(t), float(v))
        assert f.get(3.0) == 8.0

    def test_expires_old_samples(self):
        f = WindowedFilter(window_s=2.0)
        f.update(0.0, 100.0)
        f.update(1.0, 5.0)
        assert f.get(2.5) == 5.0  # the 100 at t=0 aged out, the 5 remains

    def test_empty_returns_none(self):
        f = WindowedFilter(window_s=1.0)
        assert f.get(0.0) is None

    def test_all_samples_expired(self):
        f = WindowedFilter(window_s=1.0)
        f.update(0.0, 1.0)
        assert f.get(10.0) is None


class TestValidation:
    def test_bad_window(self):
        with pytest.raises(ValueError):
            WindowedFilter(window_s=0.0)
