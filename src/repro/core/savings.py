"""Energy-savings arithmetic and the paper's dollar extrapolation.

§4.2: "The energy to run a typical data center rack is on the order of
$10k/year. With around 100k racks in a typical data center, a 1%
improvement corresponds to a cost savings of on the order of
$10 million/year."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy import calibration as cal
from repro.errors import AnalysisError


def savings_fraction(baseline_j: float, improved_j: float) -> float:
    """Fractional saving of ``improved`` vs ``baseline`` (positive = saves)."""
    if baseline_j <= 0:
        raise AnalysisError(f"baseline energy must be > 0, got {baseline_j}")
    return (baseline_j - improved_j) / baseline_j


def savings_percent(baseline_j: float, improved_j: float) -> float:
    """:func:`savings_fraction` in percent (the paper's Fig. 1 y-axis)."""
    return 100.0 * savings_fraction(baseline_j, improved_j)


@dataclass
class DatacenterCostModel:
    """Translates a fractional energy saving into $/year at scale."""

    rack_cost_usd_per_year: float = cal.RACK_COST_USD_PER_YEAR
    racks: int = cal.RACKS_PER_DATACENTER

    @property
    def total_energy_cost_usd_per_year(self) -> float:
        """Annual energy bill of the whole data center."""
        return self.rack_cost_usd_per_year * self.racks

    def annual_savings_usd(self, saving_fraction: float) -> float:
        """Dollars saved per year for a given fractional energy saving."""
        if not -1.0 <= saving_fraction <= 1.0:
            raise AnalysisError(
                f"saving fraction {saving_fraction} outside [-1, 1]"
            )
        return saving_fraction * self.total_energy_cost_usd_per_year
