"""Unit + property tests for fairness metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fairness import jain_index
from repro.errors import AnalysisError


class TestJainIndex:
    def test_perfectly_fair(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_hog(self):
        assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_intermediate(self):
        idx = jain_index([8.0, 2.0])
        assert 0.5 < idx < 1.0

    def test_negative_rejected(self):
        with pytest.raises(AnalysisError):
            jain_index([1.0, -1.0])

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")], ids=str
    )
    def test_non_finite_rejected(self, bad):
        # NaN fails every comparison, so a sign check alone lets it
        # through and the index comes out NaN
        with pytest.raises(AnalysisError, match="finite"):
            jain_index([bad, 1.0])

    def test_all_zero_rejected(self):
        with pytest.raises(AnalysisError):
            jain_index([0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            jain_index([])

    @given(
        xs=st.lists(
            st.floats(min_value=0.001, max_value=1e6), min_size=1, max_size=10
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_bounds_property(self, xs):
        idx = jain_index(xs)
        assert 1.0 / len(xs) - 1e-9 <= idx <= 1.0 + 1e-9

    @given(
        xs=st.lists(
            st.floats(min_value=0.001, max_value=1e3), min_size=2, max_size=6
        ),
        scale=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, xs, scale):
        assert jain_index(xs) == pytest.approx(
            jain_index([x * scale for x in xs]), rel=1e-6
        )
