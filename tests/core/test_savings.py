"""Unit tests for savings arithmetic and the $-extrapolation."""

import pytest

from repro.core.savings import (
    DatacenterCostModel,
    savings_fraction,
    savings_percent,
)
from repro.errors import AnalysisError


class TestSavingsFraction:
    def test_positive_saving(self):
        assert savings_fraction(100.0, 84.0) == pytest.approx(0.16)

    def test_negative_saving(self):
        assert savings_fraction(100.0, 120.0) == pytest.approx(-0.2)

    def test_percent(self):
        assert savings_percent(100.0, 84.0) == pytest.approx(16.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(AnalysisError):
            savings_fraction(0.0, 10.0)


class TestDollarExtrapolation:
    def test_default_model_prices_one_percent(self):
        """§4.2: 1% of (10k $/rack x 100k racks) = $10M/year."""
        assert DatacenterCostModel().annual_savings_usd(0.01) == pytest.approx(
            10e6
        )

    def test_total_bill(self):
        model = DatacenterCostModel()
        assert model.total_energy_cost_usd_per_year == pytest.approx(1e9)

    def test_custom_scale(self):
        model = DatacenterCostModel(rack_cost_usd_per_year=5000, racks=1000)
        assert model.annual_savings_usd(0.1) == pytest.approx(500_000)

    def test_fraction_bounds(self):
        with pytest.raises(AnalysisError):
            DatacenterCostModel().annual_savings_usd(1.5)

    def test_sixteen_percent_at_scale(self):
        """The headline 16% saving, if it held fleet-wide, is $160M/yr."""
        assert DatacenterCostModel().annual_savings_usd(0.16) == pytest.approx(
            160e6
        )
