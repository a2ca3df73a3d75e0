"""Ablations beyond the paper: which modelling choices carry the result?

DESIGN.md calls out the design decisions worth stress-testing:

* **Concavity** — Theorem 1's premise. With a *linear* power curve the
  unfairness saving must vanish (:func:`concavity_ablation`).
* **BBR2 alpha penalty** — how much of the 40 % BBR2-vs-BBR gap comes
  from the modelled implementation immaturity
  (:func:`bbr2_alpha_ablation`).
* **ECN threshold** — DCTCP's advantage as the marking threshold moves
  (:func:`ecn_threshold_ablation`).
* **Bottleneck buffer** — loss-based CCAs' retransmissions vs buffer
  depth (:func:`buffer_ablation`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.theorem import theorem1_savings
from repro.energy.cpu import DEFAULT_SAMPLE_INTERVAL_S
from repro.energy.power_model import PowerModel
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import run_once


@dataclass
class ConcavityAblation:
    """Analytic savings under concave vs linear power curves."""

    concave_savings_fraction: float
    linear_savings_fraction: float


def concavity_ablation(capacity_gbps: float = 10.0) -> ConcavityAblation:
    """Compare full-speed-then-idle savings under the calibrated concave
    curve vs a linear curve with the same endpoints."""
    model = PowerModel()
    p_concave = lambda t: model.smooth_sending_power_w(t)  # noqa: E731
    p0 = model.smooth_sending_power_w(0.0)
    p1 = model.smooth_sending_power_w(capacity_gbps)
    p_linear = lambda t: p0 + (p1 - p0) * t / capacity_gbps  # noqa: E731
    # The full-speed-then-idle schedule corresponds to the static
    # allocation (C, 0): one package busy at line rate, one fully idle.
    extreme = [capacity_gbps, 0.0]
    return ConcavityAblation(
        concave_savings_fraction=theorem1_savings(p_concave, capacity_gbps, extreme),
        linear_savings_fraction=theorem1_savings(p_linear, capacity_gbps, extreme),
    )


def concavity_exponent_sweep(
    gammas: Sequence[float] = (0.1, 0.17, 0.3, 0.5, 0.7, 0.9, 1.0),
    capacity_gbps: float = 10.0,
    fraction: float = 0.8,
) -> Dict[float, float]:
    """Sensitivity of the unfairness saving to the fitted exponent.

    The headline 16.3 % at the serialized extreme depends only on the
    paper's three anchors, but the *interior* of the Fig. 1 curve
    depends on the curve family. The sweep reports the static saving of
    an 80/20 split vs fair as gamma varies, and its shape is a finding
    in itself: the saving vanishes at gamma = 1 (linear — Theorem 1's
    boundary case) *and* collapses again as gamma -> 0, because an
    extremely concave curve is nearly flat everywhere above zero, so two
    busy flows cost the same however the split falls. Interior
    unfairness only pays at moderate concavity; at the extremes of the
    exponent, all of the savings concentrate in the full
    speed-then-*idle* schedule, where one package actually reaches p(0).
    """
    out: Dict[float, float] = {}
    for gamma in gammas:
        model = PowerModel(gamma_net=gamma)
        p = model.smooth_sending_power_w
        split = [fraction * capacity_gbps, (1 - fraction) * capacity_gbps]
        out[gamma] = theorem1_savings(p, capacity_gbps, split)
    return out


@dataclass
class Bbr2AlphaAblation:
    """Measured BBR2 energy with and without the alpha-quality penalty."""

    alpha_energy_j: float
    mature_energy_j: float
    bbr_energy_j: float

    @property
    def alpha_overhead_vs_bbr(self) -> float:
        return (self.alpha_energy_j - self.bbr_energy_j) / self.bbr_energy_j

    @property
    def mature_overhead_vs_bbr(self) -> float:
        return (self.mature_energy_j - self.bbr_energy_j) / self.bbr_energy_j


def bbr2_alpha_ablation(
    transfer_bytes: int = 25_000_000, mtu: int = 9000
) -> Bbr2AlphaAblation:
    """Quantify how much of BBR2's energy gap the alpha knobs explain.

    One single-flow run per variant: the 'mature' BBR2 is the same CCA
    with ``alpha_quality=False``. Each run meters one sender package
    with no power noise, no start jitter and the CPU model's default
    sampling interval.
    """

    def measure(cca: str, cca_kwargs: Optional[dict] = None) -> float:
        scenario = Scenario(
            f"ablation-{cca}",
            flows=[FlowSpec(transfer_bytes, cca=cca, cca_kwargs=cca_kwargs)],
            mtu_bytes=mtu,
            packages=1,
            power_noise_sigma=0.0,
            start_jitter_s=0.0,
            sample_interval_s=DEFAULT_SAMPLE_INTERVAL_S,
        )
        return run_once(scenario).energy_j

    return Bbr2AlphaAblation(
        alpha_energy_j=measure("bbr2"),
        mature_energy_j=measure("bbr2", {"alpha_quality": False}),
        bbr_energy_j=measure("bbr"),
    )


def ecn_threshold_ablation(
    thresholds_bytes: Sequence[int] = (25 * 1024, 100 * 1024, 400 * 1024),
    transfer_bytes: int = 25_000_000,
    seed: int = 0,
) -> Dict[int, float]:
    """DCTCP energy vs the switch's CE marking threshold."""
    out: Dict[int, float] = {}
    for threshold in thresholds_bytes:
        scenario = Scenario(
            name=f"ablation-ecn-{threshold}",
            flows=[FlowSpec(transfer_bytes, cca="dctcp")],
            ecn_threshold_bytes=threshold,
            packages=1,
        )
        out[threshold] = run_once(scenario, seed=seed).energy_j
    return out


def buffer_ablation(
    buffers_bytes: Sequence[int] = (256 * 1024, 1024 * 1024, 4 * 1024 * 1024),
    cca: str = "cubic",
    transfer_bytes: int = 25_000_000,
    seed: int = 0,
) -> Dict[int, "tuple[float, int]"]:
    """(energy, retransmissions) vs bottleneck buffer depth."""
    out: Dict[int, tuple] = {}
    for buffer_bytes in buffers_bytes:
        scenario = Scenario(
            name=f"ablation-buffer-{buffer_bytes}",
            flows=[FlowSpec(transfer_bytes, cca=cca)],
            buffer_bytes=buffer_bytes,
            packages=1,
        )
        m = run_once(scenario, seed=seed)
        out[buffer_bytes] = (m.energy_j, m.total_retransmissions)
    return out
