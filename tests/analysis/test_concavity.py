"""Unit tests for measured-curve concavity diagnostics."""

import math

import pytest

from repro.analysis.concavity import (
    chord_gap,
    has_decreasing_marginals,
    is_concave,
    is_increasing,
    marginal_powers,
)
from repro.errors import AnalysisError


def curve(f, xs):
    return [(x, f(x)) for x in xs]


XS = [0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0]
CONCAVE = curve(lambda x: 20 + 10 * math.sqrt(x), XS)
LINEAR = curve(lambda x: 20 + 2 * x, XS)
CONVEX = curve(lambda x: 20 + x * x, XS)


class TestIncreasing:
    def test_concave_increasing(self):
        assert is_increasing(CONCAVE)

    def test_decreasing_detected(self):
        assert not is_increasing(curve(lambda x: -x, XS))

    def test_too_few_points(self):
        with pytest.raises(AnalysisError):
            is_increasing([(0, 0), (1, 1)])

    def test_duplicate_x_rejected(self):
        with pytest.raises(AnalysisError):
            is_increasing([(0, 0), (0, 1), (1, 2)])


class TestMarginals:
    def test_marginal_values(self):
        margins = marginal_powers(LINEAR)
        assert all(m == pytest.approx(2.0) for m in margins)

    def test_decreasing_marginals_concave(self):
        assert has_decreasing_marginals(CONCAVE)
        assert is_concave(CONCAVE)

    def test_convex_fails(self):
        assert not has_decreasing_marginals(CONVEX)
        assert not is_concave(CONVEX)

    def test_linear_passes_with_tolerance(self):
        assert is_concave(LINEAR, tol=1e-9)


class TestChord:
    def test_chord_below_concave_curve(self):
        gaps = chord_gap(CONCAVE)
        assert all(g > 0 for g in gaps)

    def test_chord_above_convex_curve(self):
        assert all(g < 0 for g in chord_gap(CONVEX))

    def test_chord_zero_for_linear(self):
        gaps = chord_gap(LINEAR)
        assert all(abs(g) < 1e-9 for g in gaps)

    def test_unsorted_input_handled(self):
        shuffled = [CONCAVE[3], CONCAVE[0], CONCAVE[5], CONCAVE[1], CONCAVE[6]]
        assert all(g > 0 for g in chord_gap(shuffled))

    def test_measured_fig2_curve_is_concave(self):
        """The calibrated model's curve passes the checks the paper's
        measured curve passes."""
        from repro.energy.power_model import PowerModel

        model = PowerModel()
        points = [(t / 2, model.smooth_sending_power_w(t / 2)) for t in range(21)]
        assert is_increasing(points)
        assert is_concave(points, tol=1e-9)
        assert all(g > 0 for g in chord_gap(points))
