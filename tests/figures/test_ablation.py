"""The ablations beyond the paper: which modelling choices carry the result?

No command runs them; each test composes its runs from ``Scenario``,
``run_once``, ``theorem1_savings`` and ``PowerModel``:

* **Concavity** — Theorem 1's premise. With a *linear* power curve the
  unfairness saving must vanish.
* **BBR2 alpha penalty** — how much of the 40 % BBR2-vs-BBR gap comes
  from the modelled implementation immaturity (``docs/calibration.md``;
  ``tests/figures/test_ablation_golden.py`` pins its energies).
* **ECN threshold** — DCTCP's energy as the marking threshold moves.
* **Bottleneck buffer** — loss-based CCAs' retransmissions vs buffer
  depth.
"""

from dataclasses import dataclass
from typing import Optional

import pytest

from repro.core.theorem import theorem1_savings
from repro.energy.cpu import DEFAULT_SAMPLE_INTERVAL_S
from repro.energy.power_model import PowerModel
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import run_once

KIB = 1024
CAPACITY_GBPS = 10.0


@dataclass
class Bbr2AlphaAblation:
    """Measured BBR2 energy with and without the alpha-quality penalty."""

    alpha_energy_j: float
    mature_energy_j: float
    bbr_energy_j: float


def bbr2_alpha_ablation(transfer_bytes: int, mtu: int = 9000) -> Bbr2AlphaAblation:
    """One single-flow run per variant: the 'mature' BBR2 is the same CCA
    with ``alpha_quality=False``. Each run meters one sender package with
    no power noise, no start jitter and the CPU model's default sampling
    interval."""

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


def one_flow_energy(name, seed=0, cca="cubic", **fields):
    """Energy and retransmissions of one 1-package flow."""
    transfer_bytes = fields.pop("transfer_bytes")
    scenario = Scenario(name=name, flows=[FlowSpec(transfer_bytes, cca=cca)], packages=1, **fields)
    measurement = run_once(scenario, seed=seed)
    return measurement.energy_j, measurement.total_retransmissions


def ecn_threshold_energies(thresholds_bytes, transfer_bytes):
    """DCTCP energy vs the switch's CE marking threshold."""
    return {
        threshold: one_flow_energy(
            f"ablation-ecn-{threshold}", cca="dctcp",
            transfer_bytes=transfer_bytes, ecn_threshold_bytes=threshold,
        )[0]
        for threshold in thresholds_bytes
    }


def buffer_energies(buffers_bytes, transfer_bytes):
    """(energy, retransmissions) of one CUBIC flow vs bottleneck buffer depth."""
    return {
        buffer_bytes: one_flow_energy(
            f"ablation-buffer-{buffer_bytes}",
            transfer_bytes=transfer_bytes, buffer_bytes=buffer_bytes,
        )
        for buffer_bytes in buffers_bytes
    }


class TestConcavityAblation:
    """Full-speed-then-idle savings under the calibrated concave curve vs
    a linear curve with the same endpoints. The full-speed-then-idle
    schedule is the static allocation (C, 0): one package busy at line
    rate, one fully idle."""

    EXTREME = [CAPACITY_GBPS, 0.0]

    def test_concave_curve_saves(self):
        model = PowerModel()
        saving = theorem1_savings(model.smooth_sending_power_w, CAPACITY_GBPS, self.EXTREME)
        assert saving == pytest.approx(0.163, abs=0.01)

    def test_linear_curve_saves_nothing(self):
        model = PowerModel()
        p0 = model.smooth_sending_power_w(0.0)
        p1 = model.smooth_sending_power_w(CAPACITY_GBPS)

        def linear(rate):
            return p0 + (p1 - p0) * rate / CAPACITY_GBPS

        assert theorem1_savings(linear, CAPACITY_GBPS, self.EXTREME) == pytest.approx(0.0, abs=1e-9)


class TestConcavityExponentSweep:
    """The static saving of an 80/20 split vs fair as the fitted exponent
    varies. The saving vanishes at gamma = 1 (linear, Theorem 1's
    boundary case) *and* collapses again as gamma -> 0, because an
    extremely concave curve is nearly flat everywhere above zero."""

    @pytest.fixture(scope="class")
    def sweep(self):
        split = [0.8 * CAPACITY_GBPS, 0.2 * CAPACITY_GBPS]
        return {
            gamma: theorem1_savings(PowerModel(gamma_net=gamma).smooth_sending_power_w, CAPACITY_GBPS, split)
            for gamma in (0.1, 0.17, 0.3, 0.5, 0.7, 0.9, 1.0)
        }

    def test_linear_saves_nothing_and_every_concave_curve_saves(self, sweep):
        assert sweep[1.0] == pytest.approx(0.0, abs=1e-9)
        assert all(saving > 0 for gamma, saving in sweep.items() if gamma < 1.0)

    def test_an_interior_split_pays_most_at_moderate_concavity(self, sweep):
        # extreme concavity is nearly flat above zero: an 80/20 split of
        # two busy flows stops mattering, only idling pays there
        peak = max(sweep, key=sweep.get)
        assert 0.2 <= peak <= 0.8
        assert sweep[peak] > sweep[min(sweep)]
        assert sweep[peak] > 0.02


class TestBbr2Ablation:
    def test_alpha_knobs_explain_overhead(self):
        result = bbr2_alpha_ablation(transfer_bytes=6_000_000)
        alpha_overhead = (result.alpha_energy_j - result.bbr_energy_j) / result.bbr_energy_j
        mature_overhead = (result.mature_energy_j - result.bbr_energy_j) / result.bbr_energy_j
        assert result.alpha_energy_j > result.mature_energy_j
        assert alpha_overhead > 0.2
        assert mature_overhead < 0.5 * alpha_overhead


class TestEcnThresholdAblation:
    def test_reports_every_threshold(self):
        out = ecn_threshold_energies((50 * KIB, 200 * KIB), transfer_bytes=6_000_000)
        assert set(out) == {50 * KIB, 200 * KIB}
        assert all(e > 0 for e in out.values())

    def test_dctcp_energy_flat_across_a_16x_threshold_range(self):
        out = ecn_threshold_energies((25 * KIB, 100 * KIB, 400 * KIB), transfer_bytes=20_000_000)
        assert max(out.values()) < 1.2 * min(out.values())


class TestBufferAblation:
    def test_reports_energy_and_retx(self):
        out = buffer_energies((256 * KIB, 2 * 1024 * KIB), transfer_bytes=6_000_000)
        assert len(out) == 2
        for energy, retx in out.values():
            assert energy > 0
            assert retx >= 0

    def test_the_shallowest_buffer_loses_the_most(self):
        out = buffer_energies((256 * KIB, 1024 * KIB, 4096 * KIB), transfer_bytes=20_000_000)
        retx = [retx for _buffer, (_energy, retx) in sorted(out.items())]
        assert retx[0] >= retx[-1]
