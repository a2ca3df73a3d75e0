"""Tests for the CCA x MTU grid and its Figure 5-8 views.

Runs a reduced grid once (module-scoped) and checks each figure's
paper-facing claims on it.
"""

import pytest

from repro.figures.grid import run_cca_mtu_grid

CCAS = ("cubic", "reno", "bbr", "bbr2", "dctcp", "baseline")
MTUS = (1500, 9000)
TRANSFER = 8_000_000


@pytest.fixture(scope="module")
def grid():
    return run_cca_mtu_grid(
        transfer_bytes=TRANSFER, mtus=MTUS, ccas=CCAS, repetitions=2
    )


class TestGrid:
    def test_all_cells_present(self, grid):
        assert len(grid.cells) == len(CCAS) * len(MTUS)
        assert grid.cell("cubic", 9000).mean_energy_j > 0

    def test_missing_cell_raises(self, grid):
        with pytest.raises(LookupError):
            grid.cell("cubic", 4000)

    def test_ccas_and_mtus(self, grid):
        assert set(grid.ccas()) == set(CCAS)
        assert grid.mtus() == sorted(MTUS)

    def test_scatter_has_one_point_per_run(self, grid):
        pts = grid.scatter(x="fct")
        assert len(pts) == len(CCAS) * len(MTUS) * 2


class TestFig5View:
    def test_real_ccas_beat_baseline(self, grid):
        overheads = grid.baseline_overhead_fraction(9000)
        for cca, saving in overheads.items():
            if cca == "bbr2":
                continue
            assert saving > 0, f"{cca} should use less energy than baseline"

    def test_bbr2_costs_more_than_bbr(self, grid):
        assert grid.bbr2_vs_bbr_fraction(9000) > 0.1

    def test_mtu_9000_saves_energy(self, grid):
        for cca in CCAS:
            assert grid.mtu_savings_fraction(cca) > 0.05, cca

    def test_table_renders(self, grid):
        assert "cca" in grid.energy_table()


class TestFig6View:
    def test_power_spread_across_ccas(self, grid):
        assert grid.power_spread_fraction(1500) > 0.03

    def test_small_mtu_draws_more_power(self, grid):
        for cca in ("cubic", "reno", "bbr"):
            assert grid.power_w(cca, 1500) > grid.power_w(cca, 9000)


class TestFig7View:
    def test_energy_fct_strongly_correlated(self, grid):
        assert grid.energy_fct_correlation() > 0.7

    def test_mtu_clusters_separate(self, grid):
        small, large = grid.fct_cluster_means()
        assert small[0] > large[0]  # 1500 runs slower
        assert small[1] > large[1]  # and costlier


class TestFig8View:
    def test_baseline_most_retransmissions(self, grid):
        def retransmissions(cca):
            return sum(grid.cell(cca, m).mean_retransmissions for m in grid.mtus())

        assert max(grid.ccas(), key=retransmissions) == "baseline"

    def test_positive_retx_energy_correlation(self, grid):
        assert grid.retx_energy_correlation(exclude=("bbr2",)) > 0
