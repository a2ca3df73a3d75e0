"""Tests for the ablation studies."""

import pytest

from repro.figures.ablation import (
    bbr2_alpha_ablation,
    buffer_ablation,
    concavity_ablation,
    concavity_exponent_sweep,
    ecn_threshold_ablation,
)

KIB = 1024


class TestConcavityAblation:
    def test_concave_curve_saves(self):
        result = concavity_ablation()
        assert result.concave_savings_fraction == pytest.approx(0.163, abs=0.01)

    def test_linear_curve_saves_nothing(self):
        result = concavity_ablation()
        assert result.linear_savings_fraction == pytest.approx(0.0, abs=1e-9)


class TestConcavityExponentSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return concavity_exponent_sweep()

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
        assert result.alpha_energy_j > result.mature_energy_j
        assert result.alpha_overhead_vs_bbr > 0.2
        assert result.mature_overhead_vs_bbr < 0.5 * result.alpha_overhead_vs_bbr


class TestEcnThresholdAblation:
    def test_reports_every_threshold(self):
        out = ecn_threshold_ablation(
            thresholds_bytes=(50 * 1024, 200 * 1024),
            transfer_bytes=6_000_000,
        )
        assert set(out) == {50 * 1024, 200 * 1024}
        assert all(e > 0 for e in out.values())

    def test_dctcp_energy_flat_across_a_16x_threshold_range(self):
        out = ecn_threshold_ablation(
            thresholds_bytes=(25 * KIB, 100 * KIB, 400 * KIB),
            transfer_bytes=20_000_000,
        )
        assert max(out.values()) < 1.2 * min(out.values())


class TestBufferAblation:
    def test_reports_energy_and_retx(self):
        out = buffer_ablation(
            buffers_bytes=(256 * 1024, 2 * 1024 * 1024),
            transfer_bytes=6_000_000,
        )
        assert len(out) == 2
        for energy, retx in out.values():
            assert energy > 0
            assert retx >= 0

    def test_the_shallowest_buffer_loses_the_most(self):
        out = buffer_ablation(
            buffers_bytes=(256 * KIB, 1024 * KIB, 4096 * KIB),
            transfer_bytes=20_000_000,
        )
        retx = [retx for _buffer, (_energy, retx) in sorted(out.items())]
        assert retx[0] >= retx[-1]
