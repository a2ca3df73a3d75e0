"""The CCA x MTU measurement grid behind Figures 5-8.

§4.3-§4.5 all analyze the same underlying experiment: transmit 50 GB
with each congestion control algorithm at MTUs of 1500/3000/6000/9000
bytes, repeating each cell and recording energy, average power, flow
completion time and retransmissions. We run that grid once; each
figure's view is a group of :class:`CcaMtuGrid` methods.

Scaling: transfers default to 1/1000 of the paper's 50 GB (DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.stats import mean, pearson
from repro.analysis.tables import format_table
from repro.cc.registry import PAPER_ALGORITHMS
from repro.core.savings import savings_fraction
from repro.errors import AnalysisError
from repro.harness.cache import ResultCache
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import RepeatedResult
from repro.harness.sweep import Sweep
from repro.obs.observer import Observer

#: 50 GB scaled by 1/1000
DEFAULT_TRANSFER_BYTES = 50_000_000
DEFAULT_MTUS = (1500, 3000, 6000, 9000)


@dataclass
class GridCell:
    """One (CCA, MTU) cell with its repeated measurements."""

    cca: str
    mtu_bytes: int
    result: RepeatedResult

    @property
    def mean_energy_j(self) -> float:
        return self.result.mean_energy_j

    @property
    def mean_power_w(self) -> float:
        return self.result.mean_power_w

    @property
    def mean_fct_s(self) -> float:
        return self.result.mean_duration_s

    @property
    def mean_retransmissions(self) -> float:
        return self.result.mean_retransmissions


@dataclass
class CcaMtuGrid:
    """The full grid, with the Figure 5-8 views as methods."""

    cells: List[GridCell]
    transfer_bytes: int

    def cell(self, cca: str, mtu_bytes: int) -> GridCell:
        for c in self.cells:
            if c.cca == cca and c.mtu_bytes == mtu_bytes:
                return c
        raise LookupError(f"no cell for ({cca!r}, {mtu_bytes})")

    def ccas(self) -> List[str]:
        seen: List[str] = []
        for c in self.cells:
            if c.cca not in seen:
                seen.append(c.cca)
        return seen

    def mtus(self) -> List[int]:
        return sorted({c.mtu_bytes for c in self.cells})

    def scatter(self, x: str) -> List[Tuple[str, int, float, float]]:
        """Per-run (cca, mtu, x, energy) points for Figs. 7/8; ``x`` is
        'fct' or 'retransmissions'."""
        return [
            (
                cell.cca,
                cell.mtu_bytes,
                run.duration_s if x == "fct" else float(run.total_retransmissions),
                run.energy_j,
            )
            for cell in self.cells
            for run in cell.result.runs
        ]

    # -- Figure 5: energy per CCA and MTU (§4.3-§4.4) ---------------------

    def energy_j(self, cca: str, mtu: int) -> float:
        return self.cell(cca, mtu).mean_energy_j

    def cca_order_by_energy(self, mtu: int) -> List[str]:
        """CCAs sorted by ascending energy at one MTU (Fig. 5's bars)."""
        return sorted(self.ccas(), key=lambda c: self.energy_j(c, mtu))

    def baseline_overhead_fraction(self, mtu: int) -> Dict[str, float]:
        """Per-CCA energy saving vs the no-CC baseline (positive = CCA
        cheaper; paper: 8.2-14.2 %, BBR2 excepted)."""
        if "baseline" not in self.ccas():
            raise AnalysisError("grid lacks the baseline algorithm")
        base = self.energy_j("baseline", mtu)
        return {
            cca: savings_fraction(base, self.energy_j(cca, mtu))
            for cca in self.ccas()
            if cca != "baseline"
        }

    def bbr2_vs_bbr_fraction(self, mtu: int) -> float:
        """BBR2's extra energy relative to BBR (paper: ~0.40)."""
        bbr = self.energy_j("bbr", mtu)
        return (self.energy_j("bbr2", mtu) - bbr) / bbr

    def mtu_savings_fraction(self, cca: str, small: int = 1500, big: int = 9000) -> float:
        """Energy saved going from the small MTU to the big one (paper:
        13.4-31.9 %)."""
        return savings_fraction(self.energy_j(cca, small), self.energy_j(cca, big))

    def energy_table(self) -> str:
        return self._mean_table(
            self.cca_order_by_energy,
            lambda r: (r.mean_energy_j, r.std_energy_j),
            "E@{} (J)",
            "{:.3f}",
        )

    # -- Figure 6: average power per CCA and MTU (§4.3) -------------------

    def power_w(self, cca: str, mtu: int) -> float:
        return self.cell(cca, mtu).mean_power_w

    def cca_order_by_power(self, mtu: int) -> List[str]:
        """CCAs sorted by ascending average power at one MTU (Fig. 6)."""
        return sorted(self.ccas(), key=lambda c: self.power_w(c, mtu))

    def power_spread_fraction(self, mtu: int) -> float:
        """(max - min) / min across CCAs at one MTU (paper: ~14 %)."""
        powers = [self.power_w(c, mtu) for c in self.ccas()]
        return (max(powers) - min(powers)) / min(powers)

    def energy_power_correlation(self, mtu: int) -> float:
        """corr over CCAs of total energy vs average power (paper: -0.8):
        low power often means a slower transfer, and the long tail of
        active time costs more energy."""
        ccas = self.ccas()
        return pearson(
            [self.energy_j(c, mtu) for c in ccas],
            [self.power_w(c, mtu) for c in ccas],
        )

    def power_table(self) -> str:
        return self._mean_table(
            self.cca_order_by_power,
            lambda r: (r.mean_power_w, r.std_power_w),
            "P@{} (W)",
            "{:.2f}",
        )

    def _mean_table(
        self,
        order: Callable[[int], List[str]],
        stat: Callable[[RepeatedResult], Tuple[float, float]],
        header: str,
        float_fmt: str,
    ) -> str:
        """One row per CCA (in ``order`` at the smallest MTU) of each
        MTU's (mean, std)."""
        mtus = self.mtus()
        rows = [
            (cca, *(v for mtu in mtus for v in stat(self.cell(cca, mtu).result)))
            for cca in order(mtus[0])
        ]
        headers = ["cca"]
        for mtu in mtus:
            headers += [header.format(mtu), "std"]
        return format_table(headers, rows, float_fmt=float_fmt)

    # -- Figure 7: energy vs FCT; Figure 8: energy vs retransmissions -----

    def energy_fct_correlation(self) -> float:
        """corr(FCT, energy) over all runs (§4.5: strongly positive)."""
        pts = self.scatter("fct")
        return pearson([p[2] for p in pts], [p[3] for p in pts])

    def fct_cluster_means(self) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        """((fct, energy) mean of the MTU-1500 runs, same for MTU >= 3000):
        the two clusters of the paper's Fig. 7 inset."""
        pts = self.scatter("fct")
        small = [(p[2], p[3]) for p in pts if p[1] == 1500]
        large = [(p[2], p[3]) for p in pts if p[1] != 1500]

        def _mean(cluster: List[Tuple[float, float]]) -> Tuple[float, float]:
            return (mean([c[0] for c in cluster]), mean([c[1] for c in cluster]))

        return _mean(small), _mean(large)

    def retx_energy_correlation(self, exclude: Tuple[str, ...] = ("bbr2",)) -> float:
        """corr(retransmissions, energy) without the named CCAs (§4.5:
        0.47 excluding the highly variable BBR2 runs)."""
        pts = [p for p in self.scatter("retransmissions") if p[0] not in exclude]
        return pearson([p[2] for p in pts], [p[3] for p in pts])


def run_cca_mtu_grid(
    transfer_bytes: int = DEFAULT_TRANSFER_BYTES,
    mtus: Sequence[int] = DEFAULT_MTUS,
    ccas: Sequence[str] = PAPER_ALGORITHMS,
    repetitions: int = 3,
    base_seed: int = 0,
    time_limit_s: float = 600.0,
    *,
    jobs: Optional[int] = None,
    cache_dir: Union[None, str, Path, ResultCache] = None,
    observer: Optional[Observer] = None,
) -> CcaMtuGrid:
    """Run the full CCA x MTU grid (the §4.3-§4.5 experiment).

    The grid is one :class:`~repro.harness.sweep.Sweep` over
    (cca, mtu): ``jobs=N`` fans the cells' repetitions out across N
    worker processes and ``cache_dir=`` reuses previous runs — with
    identical results either way, since seeds are per-repetition.
    """

    def cell_scenario(cca: str, mtu: int) -> Scenario:
        return Scenario(
            name=f"grid-{cca}-mtu{mtu}",
            flows=[FlowSpec(transfer_bytes, cca=cca)],
            mtu_bytes=mtu,
            packages=1,
            time_limit_s=time_limit_s,
        )

    sweep = Sweep({"cca": list(ccas), "mtu": list(mtus)})
    results = sweep.run(
        cell_scenario,
        repetitions=repetitions,
        base_seed=base_seed,
        jobs=jobs,
        cache=cache_dir,
        observer=observer,
    )
    cells = [
        GridCell(cca=row["cca"], mtu_bytes=row["mtu"], result=row.result)
        for row in results.rows
    ]
    return CcaMtuGrid(cells=cells, transfer_bytes=transfer_bytes)
