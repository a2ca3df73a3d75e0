"""Tests for convergence analysis and the friendliness matrix."""

import pytest

from repro.analysis.convergence import (
    convergence_time,
    fairness_over_time,
    mean_fairness,
)
from repro.errors import AnalysisError
from repro.figures.friendliness import run_friendliness_matrix, run_pairing
from repro.sim.trace import TimeSeries


def series(name, values, interval=1.0):
    ts = TimeSeries(name)
    for i, v in enumerate(values):
        ts.record(i * interval, v)
    return ts


class TestConvergenceAnalysis:
    def test_fair_series_index_one(self):
        a = series("a", [5.0, 5.0, 5.0])
        b = series("b", [5.0, 5.0, 5.0])
        points = fairness_over_time([a, b])
        assert all(f == pytest.approx(1.0) for _t, f in points)

    def test_skewed_series_low_index(self):
        a = series("a", [9.0, 9.0])
        b = series("b", [1.0, 1.0])
        assert mean_fairness([a, b]) < 0.7

    def test_idle_samples_skipped(self):
        a = series("a", [0.0, 5.0])
        b = series("b", [0.0, 5.0])
        points = fairness_over_time([a, b])
        assert len(points) == 1

    def test_convergence_time_detects_settling(self):
        # Jain(6,4) = 0.962 already clears the 0.95 threshold, so the
        # sustained-fair run starts at t=2.
        a = series("a", [9, 8, 6, 5, 5, 5, 5, 5, 5, 5])
        b = series("b", [1, 2, 4, 5, 5, 5, 5, 5, 5, 5])
        t = convergence_time([a, b], threshold=0.95, hold_samples=3)
        assert t == pytest.approx(2.0)

    def test_never_converges_returns_none(self):
        a = series("a", [9.0] * 6)
        b = series("b", [1.0] * 6)
        assert convergence_time([a, b]) is None

    def test_needs_two_flows(self):
        with pytest.raises(AnalysisError):
            fairness_over_time([series("a", [1.0])])

    def test_two_competing_cubic_flows_converge(self):
        """End to end: real competing flows approach fair sharing."""
        from repro.harness.experiment import FlowSpec, Scenario
        from repro.harness.runner import run_once

        scenario = Scenario(
            "conv",
            flows=[FlowSpec(10_000_000, cca="cubic"), FlowSpec(10_000_000, cca="cubic")],
            probe_interval_s=1e-3,
        )
        m = run_once(scenario, seed=0)
        fairness = mean_fairness(list(m.throughput_series.values()))
        assert fairness > 0.8


class TestFriendliness:
    @pytest.fixture(scope="class")
    def matrix(self):
        return run_friendliness_matrix(
            ccas=("cubic", "bbr", "reno"), transfer_bytes=6_000_000
        )

    def test_all_pairings_present(self, matrix):
        assert len(matrix.pairings) == 3  # C(3, 2)

    def test_shares_are_fractions(self, matrix):
        for p in matrix.pairings:
            assert 0.0 <= p.share_a <= 1.0

    def test_fairness_in_bounds(self, matrix):
        for p in matrix.pairings:
            assert 0.5 <= p.mean_fairness <= 1.0 + 1e-9

    def test_energy_positive(self, matrix):
        assert all(p.energy_j > 0 for p in matrix.pairings)

    def test_bully_labels_larger_share(self, matrix):
        for p in matrix.pairings:
            expected = p.cca_a if p.share_a >= 0.5 else p.cca_b
            assert p.bully == expected

    def test_lookup(self, matrix):
        assert matrix.pairing("cubic", "bbr").cca_b == "bbr"
        with pytest.raises(LookupError):
            matrix.pairing("cubic", "vegas")

    def test_same_cca_pairing_roughly_fair(self):
        result = run_pairing("reno", "reno", transfer_bytes=6_000_000)
        assert 0.25 <= result.share_a <= 0.75

    def test_table_renders(self, matrix):
        assert "mean Jain" in matrix.format_table()


class TestFriendlinessMatrixShape:
    """The default four-CCA matrix at 10 MB per flow."""

    @pytest.fixture(scope="class")
    def matrix(self):
        return run_friendliness_matrix()

    def test_some_pairing_is_unfair(self, matrix):
        # the deployment reality head-to-head studies document
        assert any(p.mean_fairness < 0.8 for p in matrix.pairings)

    def test_no_pairing_costs_much_more_for_the_same_work(self, matrix):
        energies = [p.energy_j for p in matrix.pairings]
        assert max(energies) < 1.25 * min(energies)
