"""Tests for Theorem 1 — including hypothesis property tests.

The theorem: for strictly concave p, the fair share maximizes total
power among all allocations of the capacity.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.theorem import (
    fair_allocation,
    is_strictly_concave_on,
    random_allocation,
    theorem1_savings,
    total_power,
    worst_allocation_is_fair,
)
from repro.energy.power_model import PowerModel
from repro.errors import AnalysisError


def concave_sqrt(x):
    return math.sqrt(x)


def concave_log(x):
    return math.log1p(x)


def linear(x):
    return 2.0 * x + 1.0


class TestBasics:
    def test_total_power_sums(self):
        assert total_power(linear, [1.0, 2.0]) == pytest.approx(
            linear(1) + linear(2)
        )

    def test_total_power_empty_rejected(self):
        with pytest.raises(AnalysisError):
            total_power(linear, [])

    def test_fair_allocation(self):
        assert fair_allocation(10.0, 4) == [2.5] * 4

    def test_fair_allocation_validation(self):
        with pytest.raises(AnalysisError):
            fair_allocation(0.0, 2)
        with pytest.raises(AnalysisError):
            fair_allocation(10.0, 0)


class TestTheoremHolds:
    @pytest.mark.parametrize("p", [concave_sqrt, concave_log])
    def test_unfair_beats_fair(self, p):
        assert theorem1_savings(p, 10.0, [8.0, 2.0]) > 0
        assert theorem1_savings(p, 10.0, [9.9, 0.1]) > 0

    def test_fair_vs_itself_not_strict(self):
        # theorem conclusion is strict only for y != x*
        assert theorem1_savings(concave_sqrt, 10.0, [5.0, 5.0]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_linear_curve_gives_equality(self):
        savings = theorem1_savings(linear, 10.0, [9.0, 1.0])
        assert savings == pytest.approx(0.0, abs=1e-12)

    def test_monte_carlo_search(self):
        assert worst_allocation_is_fair(concave_sqrt, 10.0, n=3, trials=500)

    @pytest.mark.parametrize(
        "p", [lambda x: x**0.2, concave_sqrt, lambda x: x**0.8, concave_log],
        ids=["x^0.2", "x^0.5", "x^0.8", "log1p"],
    )
    def test_no_split_of_three_flows_beats_fair(self, p):
        assert worst_allocation_is_fair(p, 10.0, n=3, trials=1000)

    def test_savings_positive_for_unfair(self):
        assert theorem1_savings(concave_sqrt, 10.0, [9.0, 1.0]) > 0

    def test_calibrated_model_curve(self):
        """The paper's calibrated curve satisfies the premise and yields
        the headline ~16% at the extreme."""
        model = PowerModel()
        p = model.smooth_sending_power_w
        assert is_strictly_concave_on(p, 0.0, 10.0)
        # The time-shared full-speed-then-idle schedule corresponds to
        # the static allocation (C, 0): one flow's package busy at line
        # rate, the other fully idle.
        extreme = [10.0, 0.0]
        assert theorem1_savings(p, 10.0, extreme) == pytest.approx(
            0.163, abs=0.01
        )


class TestCalibratedAllocations:
    """Savings of concrete allocations on the calibrated 10 Gb/s curve."""

    def test_calibrated_curve_is_concave(self):
        p = PowerModel().smooth_sending_power_w
        assert is_strictly_concave_on(p, 0.0, 10.0)

    def test_unfair_split_saves(self):
        p = PowerModel().smooth_sending_power_w
        assert theorem1_savings(p, 10.0, [9.0, 1.0]) > 0

    def test_fair_split_saves_nothing(self):
        p = PowerModel().smooth_sending_power_w
        assert theorem1_savings(p, 10.0, [5.0, 5.0]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_no_flows_rejected(self):
        with pytest.raises(AnalysisError):
            theorem1_savings(PowerModel().smooth_sending_power_w, 10.0, [])

    def test_loaded_host_saves_less(self):
        model = PowerModel()

        def loaded(throughput_gbps):
            return model.smooth_sending_power_w(throughput_gbps, 0.5)

        idle = theorem1_savings(model.smooth_sending_power_w, 10.0, [9.9, 0.1])
        assert theorem1_savings(loaded, 10.0, [9.9, 0.1]) < idle


class TestConcavityChecker:
    def test_detects_concave(self):
        assert is_strictly_concave_on(concave_sqrt, 0.1, 10.0)

    def test_rejects_linear(self):
        assert not is_strictly_concave_on(linear, 0.0, 10.0)

    def test_rejects_convex(self):
        assert not is_strictly_concave_on(lambda x: x * x, 0.0, 10.0)

    def test_empty_interval_rejected(self):
        with pytest.raises(AnalysisError):
            is_strictly_concave_on(concave_sqrt, 1.0, 1.0)


class TestPropertyBased:
    @given(
        weights=st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6
        ),
        gamma=st.floats(min_value=0.1, max_value=0.9),
        capacity=st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_power_law_curves_always_prefer_unfair(
        self, weights, gamma, capacity
    ):
        """For any p(x)=x^gamma (0<gamma<1) and any allocation, the fair
        share draws at least as much power."""
        p = lambda x: x**gamma  # noqa: E731
        total = sum(weights)
        allocation = [w / total * capacity for w in weights]
        n = len(allocation)
        fair = total_power(p, fair_allocation(capacity, n))
        other = total_power(p, allocation)
        assert fair >= other - 1e-9 * max(1.0, fair)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_random_allocation_sums_to_capacity(self, seed):
        import random

        alloc = random_allocation(10.0, 4, random.Random(seed))
        assert sum(alloc) == pytest.approx(10.0, rel=1e-6)
        assert all(a > 0 for a in alloc)

    @given(
        n=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_theorem_on_calibrated_curve_random_allocations(self, n, seed):
        import random

        p = PowerModel().smooth_sending_power_w
        alloc = random_allocation(10.0, n, random.Random(seed))
        fair = total_power(p, fair_allocation(10.0, n))
        assert fair >= total_power(p, alloc) - 1e-9
