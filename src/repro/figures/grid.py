"""The CCA x MTU measurement grid shared by Figures 5-8.

§4.3-§4.5 all analyze the same underlying experiment: transmit 50 GB
with each congestion control algorithm at MTUs of 1500/3000/6000/9000
bytes, repeating each cell and recording energy, average power, flow
completion time and retransmissions. We run that grid once and let each
figure derive its view.

Scaling: transfers default to 1/1000 of the paper's 50 GB (DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.cc.registry import PAPER_ALGORITHMS
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
    """The full grid with lookup helpers."""

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

    def scatter(
        self, x: str, y: str = "energy"
    ) -> List[Tuple[str, int, float, float]]:
        """Per-run scatter points (cca, mtu, x, y) for Figs. 7/8.

        ``x`` is 'fct' or 'retransmissions'; ``y`` is 'energy'.
        """
        points = []
        for cell in self.cells:
            for run in cell.result.runs:
                xs = (
                    run.duration_s
                    if x == "fct"
                    else float(run.total_retransmissions)
                )
                ys = run.energy_j if y == "energy" else run.average_power_w
                points.append((cell.cca, cell.mtu_bytes, xs, ys))
        return points


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
    observer: Union[None, str, Path, Observer] = None,
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
