"""Figure 4: power vs bitrate under background server load.

§4.2 re-runs the Fig. 2 smooth-sending sweep while ``stress`` occupies
0/25/50/75 % of the host's cores. The network's marginal power shrinks
as the host gets busier, but full-speed-then-idle still saves ~1 % at
25 % load and ~0.17 % at 75 % — which the paper extrapolates to
~$10M/year for a 100k-rack datacenter.

The load x bitrate matrix is declared as one
:class:`~repro.harness.sweep.Sweep` (axes: load, target bitrate) rather
than nested loops, so the whole figure parallelizes and caches through
the executor layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.tables import format_table
from repro.figures.fig2 import (
    Fig2Point,
    _idle_power_for,
    _point_scenario,
    _window_point,
)
from repro.harness.cache import ResultCache
from repro.harness.experiment import Scenario
from repro.harness.sweep import Sweep
from repro.obs.observer import Observer

DEFAULT_LOADS = (0.0, 0.25, 0.50, 0.75)
DEFAULT_THROUGHPUTS_GBPS = (0.0, 2.0, 4.0, 5.0, 6.0, 8.0, 10.0)


@dataclass
class Fig4Result:
    """One smooth-power curve per background-load level."""

    curves: Dict[float, List[Fig2Point]]
    window_s: float

    def loads(self) -> List[float]:
        return sorted(self.curves)

    def savings_fsti_vs_fair_percent(self, load: float) -> float:
        """Full-speed-then-idle saving for two half-rate flows at this
        load, from the measured curve endpoints (the §4.2 numbers).

        fair: both flows at C/2 for the window -> 2 * p(C/2) * T
        fsti: each flow busy half the window  -> (p(C) + p(0)) * T
        """
        curve = {p.target_gbps: p.mean_power_w for p in self.curves[load]}
        line_rate = max(curve)
        half = line_rate / 2.0
        if half not in curve:
            raise KeyError(f"curve at load {load} lacks the half-rate point")
        fair = 2.0 * curve[half]
        fsti = curve[line_rate] + curve[0.0]
        return 100.0 * (fair - fsti) / fair

    def format_table(self) -> str:
        rows = []
        throughputs = sorted(
            {p.target_gbps for pts in self.curves.values() for p in pts}
        )
        for t in throughputs:
            row: List[object] = [t]
            for load in self.loads():
                match = [p for p in self.curves[load] if p.target_gbps == t]
                row.append(match[0].mean_power_w if match else float("nan"))
            rows.append(tuple(row))
        headers = ["bitrate (Gb/s)"] + [
            f"load {100 * load:.0f}% (W)" for load in self.loads()
        ]
        return format_table(headers, rows, float_fmt="{:.2f}")


def run_fig4(
    loads: Sequence[float] = DEFAULT_LOADS,
    throughputs_gbps: Sequence[float] = DEFAULT_THROUGHPUTS_GBPS,
    window_s: float = 0.02,
    repetitions: int = 3,
    base_seed: int = 0,
    *,
    jobs: Optional[int] = None,
    cache_dir: Union[None, str, Path, ResultCache] = None,
    observer: Optional[Observer] = None,
) -> Fig4Result:
    """Measure the smooth-power curve at each background load."""
    positive = [t for t in throughputs_gbps if t > 0]

    def point_scenario(load: float, target_gbps: float) -> Scenario:
        return _point_scenario(target_gbps, window_s, False, "cubic", load)

    results = Sweep({"load": list(loads), "target_gbps": positive}).run(
        point_scenario,
        repetitions=repetitions,
        base_seed=base_seed,
        jobs=jobs,
        cache=cache_dir,
        observer=observer,
    )
    curves: Dict[float, List[Fig2Point]] = {}
    for load in loads:
        points: List[Fig2Point] = []
        for target in throughputs_gbps:
            if target <= 0:
                points.append(Fig2Point(0.0, _idle_power_for(load), 0.0))
            else:
                row = results.one(load=load, target_gbps=target)
                points.append(
                    _window_point(target, row.result.runs, window_s, load)
                )
        curves[load] = points
    return Fig4Result(curves=curves, window_s=window_s)
