"""Figure 2: power vs average throughput for a CUBIC sender.

Two series over a fixed measurement window:

* **Sending smoothly** — the flow is application-rate-limited to the
  target throughput for the whole window (the paper's blue curve). The
  resulting power curve is strictly concave and increasing.
* **Full speed, then idle** — the same number of bytes are blasted at
  line rate, then the host idles for the remainder of the window (the
  paper's orange tangent line): time-averaged power falls on the chord
  between p(0) and p(line rate).

A throughput of zero is the idle server's p(0) (the calibration anchor,
21.49 W unloaded): an empty testbed does no work, so it is read off the
power model rather than simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.sweep import Sweep
from repro.obs.observer import Observer
from repro.units import gbps

DEFAULT_WINDOW_S = 0.02
DEFAULT_THROUGHPUTS_GBPS = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)


@dataclass
class Fig2Point:
    """One (throughput, power) sample of either series."""

    target_gbps: float
    mean_power_w: float
    std_power_w: float


@dataclass
class Fig2Result:
    """Both series of Figure 2."""

    smooth: List[Fig2Point]
    full_speed_then_idle: List[Fig2Point]

    def smooth_curve(self) -> List[Tuple[float, float]]:
        """(throughput, power) points of the smooth-sending series."""
        return [(p.target_gbps, p.mean_power_w) for p in self.smooth]

    def chord_curve(self) -> List[Tuple[float, float]]:
        """(throughput, power) points of the burst-then-idle series."""
        return [(p.target_gbps, p.mean_power_w) for p in self.full_speed_then_idle]

    def format_table(self) -> str:
        rows = []
        chord_by_target = {p.target_gbps: p for p in self.full_speed_then_idle}
        for p in self.smooth:
            chord = chord_by_target.get(p.target_gbps)
            rows.append(
                (
                    p.target_gbps,
                    p.mean_power_w,
                    p.std_power_w,
                    chord.mean_power_w if chord else float("nan"),
                )
            )
        return format_table(
            ["throughput (Gb/s)", "smooth power (W)", "std", "burst+idle power (W)"],
            rows,
            float_fmt="{:.2f}",
        )


def _point_scenario(
    target_gbps: float,
    window_s: float,
    burst: bool,
    cca: str,
    load: float,
) -> Scenario:
    """A single-flow scenario moving ``target * window`` bits."""
    payload = int(gbps(target_gbps) * window_s / 8)
    flow = FlowSpec(
        total_bytes=payload,
        cca=cca,
        target_rate_bps=None if burst else gbps(target_gbps),
    )
    return Scenario(
        name=f"fig2-{'burst' if burst else 'smooth'}-{target_gbps:g}",
        flows=[flow],
        background_load=load,
        packages=1,
        # Curve-shape figures need low measurement noise; the paper
        # plots means of 10 runs, we run fewer reps with a tighter sigma.
        power_noise_sigma=0.0015,
    )


def _window_point(
    target_gbps: float, runs, window_s: float, load: float
) -> Fig2Point:
    """Summarize repeated runs as power over the *fixed window*.

    Normalize to the window: after completion the package idles at
    p(0), which the window's time-average must include (the flow may
    finish early in burst mode), so both series share the same
    denominator.
    """
    from repro.analysis.stats import mean, sample_std

    powers = []
    for m in runs:
        leftover = max(0.0, window_s - m.duration_s)
        energy = m.energy_j + _idle_power_for(load) * leftover
        powers.append(energy / max(window_s, m.duration_s))
    return Fig2Point(target_gbps, mean(powers), sample_std(powers))


def _measure_series(
    throughputs: Sequence[float],
    window_s: float,
    burst: bool,
    cca: str,
    repetitions: int,
    base_seed: int,
    load: float = 0.0,
    jobs=None,
    cache=None,
    observer: Optional[Observer] = None,
) -> List[Fig2Point]:
    """Measure one series as one :class:`~repro.harness.sweep.Sweep`
    over the positive targets, so all (target, repetition) simulations
    fan out at once. An idle (zero-throughput) point is p(0), the power
    :func:`_window_point` charges for every idle second of the others."""
    def point_scenario(target_gbps: float) -> Scenario:
        return _point_scenario(target_gbps, window_s, burst, cca, load)

    results = Sweep({"target_gbps": [t for t in throughputs if t > 0]}).run(
        point_scenario,
        repetitions=repetitions,
        base_seed=base_seed,
        jobs=jobs,
        cache=cache,
        observer=observer,
    )
    runs_by_target = {
        row["target_gbps"]: row.result.runs for row in results.rows
    }
    points: List[Fig2Point] = []
    for target in throughputs:
        if target <= 0:
            points.append(Fig2Point(0.0, _idle_power_for(load), 0.0))
        else:
            points.append(
                _window_point(target, runs_by_target[target], window_s, load)
            )
    return points


def _idle_power_for(load: float) -> float:
    from repro.energy.power_model import PowerModel

    return PowerModel().smooth_sending_power_w(0.0, load)


def run_fig2(
    throughputs_gbps: Sequence[float] = DEFAULT_THROUGHPUTS_GBPS,
    window_s: float = DEFAULT_WINDOW_S,
    repetitions: int = 3,
    base_seed: int = 0,
    *,
    jobs=None,
    cache_dir=None,
    observer: Optional[Observer] = None,
) -> Fig2Result:
    """Reproduce both Figure 2 series (one journal for both)."""
    smooth = _measure_series(
        throughputs_gbps, window_s, burst=False, cca="cubic",
        repetitions=repetitions, base_seed=base_seed,
        jobs=jobs, cache=cache_dir, observer=observer,
    )
    burst = _measure_series(
        throughputs_gbps, window_s, burst=True, cca="cubic",
        repetitions=repetitions, base_seed=base_seed + 1000,
        jobs=jobs, cache=cache_dir, observer=observer,
    )
    return Fig2Result(smooth=smooth, full_speed_then_idle=burst)
