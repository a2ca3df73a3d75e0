"""Figure 1: energy savings vs bandwidth fraction allocated to flow #1.

Paper setup (§1, §4.1): two CUBIC flows share a 10 Gb/s bottleneck, each
transferring 10 Gbit. Flow 1 is rate-limited to a fraction of the link,
flow 2 uses the remainder; total energy is measured from experiment
start until *both* flows complete. The fair point (50/50) is the most
expensive; the full-speed-then-idle extreme saves ~16 %.

Scaling: transfers default to 1/100 of the paper's (12.5 MB each), which
preserves throughputs and powers and shrinks only the duration/energy
axis (DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.analysis.tables import format_table
from repro.core.allocation import (
    FAIR_PLAN_NAME,
    FSTI_PLAN_NAME,
    AllocationPlan,
    fig1_allocations,
)
from repro.core.savings import savings_percent
from repro.harness.cache import ResultCache
from repro.harness.executor import ResultHook
from repro.harness.experiment import Scenario, scenario_from_plan
from repro.harness.runner import RepeatedResult
from repro.harness.sweep import Sweep, SweepResults
from repro.obs.observer import Observer
from repro.units import gbps

#: paper: 10 Gbit per flow; default scale 1/100
DEFAULT_TRANSFER_BYTES = 12_500_000
DEFAULT_CAPACITY_BPS = gbps(10.0)


@dataclass
class Fig1Point:
    """One x-position of Figure 1."""

    label: str
    flow0_fraction: Optional[float]
    result: RepeatedResult

    @property
    def mean_energy_j(self) -> float:
        return self.result.mean_energy_j


@dataclass
class Fig1Result:
    """The full sweep plus derived savings."""

    points: List[Fig1Point]

    @property
    def fair_point(self) -> Fig1Point:
        for point in self.points:
            if point.label == FAIR_PLAN_NAME:
                return point
        raise LookupError("sweep has no fair point")

    @property
    def fsti_point(self) -> Fig1Point:
        for point in self.points:
            if point.label == FSTI_PLAN_NAME:
                return point
        raise LookupError("sweep has no full-speed-then-idle point")

    def savings_vs_fair_percent(self, point: Fig1Point) -> float:
        """The paper's y-axis: energy saving relative to the fair split."""
        return savings_percent(self.fair_point.mean_energy_j, point.mean_energy_j)

    @property
    def max_savings_percent(self) -> float:
        return max(self.savings_vs_fair_percent(p) for p in self.points)

    def format_table(self) -> str:
        try:
            self.fair_point
            have_fair = True
        except LookupError:
            # A partial figure from an aborted sweep may lack the fair
            # arm; the energies are still worth printing.
            have_fair = False
        rows = []
        for point in self.points:
            frac = (
                f"{100 * point.flow0_fraction:.0f}%"
                if point.flow0_fraction is not None
                else "-"
            )
            rows.append(
                (
                    point.label,
                    frac,
                    point.mean_energy_j,
                    point.result.std_energy_j,
                    self.savings_vs_fair_percent(point) if have_fair else "-",
                )
            )
        return format_table(
            ["allocation", "flow1 share", "energy (J)", "std (J)", "savings vs fair (%)"],
            rows,
        )


def run_fig1(
    transfer_bytes: int = DEFAULT_TRANSFER_BYTES,
    capacity_bps: float = DEFAULT_CAPACITY_BPS,
    fractions: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    cca: str = "cubic",
    repetitions: int = 3,
    base_seed: int = 0,
    *,
    jobs: Optional[int] = None,
    cache_dir: Union[None, str, Path, ResultCache] = None,
    observer: Optional[Observer] = None,
    on_result: Optional[ResultHook] = None,
) -> Fig1Result:
    """Reproduce the Fig. 1 sweep.

    One :class:`~repro.harness.sweep.Sweep` over the allocation plans;
    ``jobs``/``cache_dir`` parallelize and cache the underlying
    simulations without changing any result, and ``observer`` journals
    the sweep — see :mod:`repro.obs`.
    ``on_result`` sees every finished run and may stop the sweep; on
    abort the raised :class:`~repro.errors.SweepAbortedError` carries a
    ``partial_figure`` built from the grid points that completed.
    """
    plans = list(fig1_allocations(transfer_bytes, capacity_bps, fractions))

    def plan_scenario(plan: AllocationPlan) -> Scenario:
        return scenario_from_plan(f"fig1-{plan.name}", plan, cca=cca)

    def to_result(results: SweepResults) -> Fig1Result:
        return Fig1Result(
            points=[
                Fig1Point(
                    label=row["plan"].name,
                    flow0_fraction=row["plan"].flow0_fraction
                    if row["plan"].name != FSTI_PLAN_NAME
                    else None,
                    result=row.result,
                )
                for row in results.rows
            ]
        )

    return to_result(
        Sweep({"plan": plans}).run(
            plan_scenario,
            repetitions=repetitions,
            base_seed=base_seed,
            jobs=jobs,
            cache=cache_dir,
            observer=observer,
            on_result=on_result,
            partial_figure=to_result,
        )
    )
