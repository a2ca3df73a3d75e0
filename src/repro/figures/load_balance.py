"""§5 extension: load imbalance across links under two switch-power models.

The experiment the paper's final paragraph sketches: spread an aggregate
load across m parallel links either *balanced* (ECMP-style, each link at
R/m) or *consolidated* (fill links one at a time, sleep the rest), and
compare switch energy under

* today's load-independent port hardware ([21, 32]), and
* rate-adaptive, sleep-capable hardware ([45]).

The reproduction-level claims: with today's hardware the split is
irrelevant (savings = 0); with rate-adaptive hardware, consolidation
saves — the network-side mirror of the paper's end-host result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.tables import format_table
from repro.energy.switch_power import (
    SwitchPowerModel,
    rate_adaptive_switch,
    todays_switch,
)
from repro.errors import ExperimentError


def balanced_utilizations(load_fraction: float, links: int) -> List[float]:
    """ECMP: every link carries load/m."""
    if not 0.0 <= load_fraction <= 1.0:
        raise ExperimentError(f"load must be in [0, 1] of capacity, got {load_fraction}")
    return [load_fraction for _ in range(links)]


def consolidated_utilizations(load_fraction: float, links: int) -> List[float]:
    """Fill links to 100 % one at a time; surplus links carry nothing.

    ``load_fraction`` is per-link-normalized (1.0 = every link full), so
    total traffic is preserved between the two placements.
    """
    if not 0.0 <= load_fraction <= 1.0:
        raise ExperimentError(f"load must be in [0, 1] of capacity, got {load_fraction}")
    total = load_fraction * links
    out: List[float] = []
    for _ in range(links):
        take = min(1.0, total)
        out.append(take)
        total -= take
    return out


@dataclass
class LoadBalancePoint:
    """Switch power for one (hardware, placement, load) combination."""

    load_fraction: float
    balanced_w: float
    consolidated_w: float

    @property
    def savings_fraction(self) -> float:
        if self.balanced_w <= 0:
            raise ExperimentError("balanced power must be positive")
        return (self.balanced_w - self.consolidated_w) / self.balanced_w


@dataclass
class LoadBalanceResult:
    """The load sweep under one hardware model."""

    hardware: str
    links: int
    points: List[LoadBalancePoint]

    def max_savings(self) -> float:
        return max(p.savings_fraction for p in self.points)

    def format_table(self) -> str:
        rows = [
            (
                f"{100 * p.load_fraction:.0f}%",
                p.balanced_w,
                p.consolidated_w,
                100 * p.savings_fraction,
            )
            for p in self.points
        ]
        return format_table(
            [
                f"load ({self.hardware})",
                "balanced (W)",
                "consolidated (W)",
                "savings (%)",
            ],
            rows,
        )


def run_load_balance(
    model: SwitchPowerModel,
    hardware: str,
    links: int = 8,
    loads: Sequence[float] = (0.125, 0.25, 0.5, 0.75),
) -> LoadBalanceResult:
    """Sweep aggregate load under one switch-power model."""
    points = []
    for load in loads:
        balanced = model.total_power_w(balanced_utilizations(load, links))
        consolidated = model.total_power_w(
            consolidated_utilizations(load, links)
        )
        points.append(
            LoadBalancePoint(
                load_fraction=load,
                balanced_w=balanced,
                consolidated_w=consolidated,
            )
        )
    return LoadBalanceResult(hardware=hardware, links=links, points=points)


def run_hardware_comparison(
    loads: Sequence[float] = (0.125, 0.25, 0.5, 0.75)
) -> "tuple[LoadBalanceResult, LoadBalanceResult]":
    """Both hardware generations, same placements."""
    return (
        run_load_balance(todays_switch(), "load-independent", 8, loads),
        run_load_balance(rate_adaptive_switch(), "rate-adaptive", 8, loads),
    )
