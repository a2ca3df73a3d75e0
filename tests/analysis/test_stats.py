"""Unit + property tests for the statistics helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    bootstrap_ci,
    geometric_mean,
    linear_fit,
    mean,
    pearson,
    sample_std,
)
from repro.errors import AnalysisError

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestMeanStd:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty(self):
        with pytest.raises(AnalysisError):
            mean([])

    def test_std_known_value(self):
        assert sample_std([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == (
            pytest.approx(2.138, abs=1e-3)
        )

    def test_std_single_sample_zero(self):
        assert sample_std([5.0]) == 0.0

    def test_std_constant_zero(self):
        assert sample_std([3.0, 3.0, 3.0]) == 0.0


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_uncorrelated(self):
        r = pearson([1, 2, 3, 4], [1, -1, 1, -1])
        assert abs(r) < 0.5

    def test_length_mismatch(self):
        with pytest.raises(AnalysisError):
            pearson([1, 2], [1, 2, 3])

    def test_constant_rejected(self):
        with pytest.raises(AnalysisError):
            pearson([1, 1, 1], [1, 2, 3])

    @given(
        xs=st.lists(floats, min_size=3, max_size=20),
        a=st.floats(min_value=0.1, max_value=10),
        b=floats,
    )
    @settings(max_examples=100, deadline=None)
    def test_linear_transform_preserves_correlation(self, xs, a, b):
        if max(xs) - min(xs) < 1e-6:  # degenerate spread underflows
            return
        ys = [a * x + b for x in xs]
        assert pearson(xs, ys) == pytest.approx(1.0, abs=1e-6)

    @given(xs=st.lists(floats, min_size=3, max_size=20), ys=st.lists(floats, min_size=3, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, xs, ys):
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        if max(xs) - min(xs) < 1e-6 or max(ys) - min(ys) < 1e-6:
            return  # degenerate spread can underflow the variance
        r = pearson(xs, ys)
        assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9


class TestLinearFit:
    def test_exact_line(self):
        slope, intercept = linear_fit([0, 1, 2], [1, 3, 5])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)

    def test_constant_x_rejected(self):
        with pytest.raises(AnalysisError):
            linear_fit([1, 1], [1, 2])


class TestGeometricMean:
    def test_known(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_positive_only(self):
        with pytest.raises(AnalysisError):
            geometric_mean([1.0, 0.0])

    @given(xs=st.lists(st.floats(min_value=0.01, max_value=1e3), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_arithmetic_mean(self, xs):
        assert geometric_mean(xs) <= mean(xs) + 1e-9


class TestBootstrapCi:
    def test_interval_contains_mean_for_tight_data(self):
        values = [10.0, 10.1, 9.9, 10.05, 9.95]
        lo, hi = bootstrap_ci(values)
        assert lo <= mean(values) <= hi

    def test_interval_narrows_with_less_variance(self):
        tight = bootstrap_ci([10.0, 10.01, 9.99, 10.0])
        wide = bootstrap_ci([5.0, 15.0, 8.0, 12.0])
        assert (tight[1] - tight[0]) < (wide[1] - wide[0])

    def test_single_value_degenerate(self):
        assert bootstrap_ci([7.0]) == (7.0, 7.0)

    def test_deterministic_given_seed(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert bootstrap_ci(values, seed=5) == bootstrap_ci(values, seed=5)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            bootstrap_ci([])

    def test_bad_confidence_rejected(self):
        with pytest.raises(AnalysisError):
            bootstrap_ci([1.0, 2.0], confidence=1.5)
