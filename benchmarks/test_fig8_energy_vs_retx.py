"""Figure 8 / §4.5: energy vs retransmissions.

Paper claims reproduced here:
* energy correlates positively with retransmission count once the
  highly-variable BBR2 runs are excluded (paper: 0.47),
* the no-CC baseline produces by far the most retransmissions and sits
  high on the energy axis.
"""

from benchmarks.conftest import run_benchmarked


def test_fig8_energy_vs_retx(benchmark, cca_mtu_grid):
    grid = cca_mtu_grid
    table = run_benchmarked(benchmark, grid.retx_table)
    print("\n== Figure 8: energy vs retransmissions ==")
    print(table)

    corr = grid.retx_energy_correlation(exclude=("bbr2",))
    log_corr = grid.retx_log_correlation(exclude=("bbr2",))
    print(f"corr(retx, energy) excl bbr2: {corr:.2f} (paper: 0.47)")
    print(f"corr(log retx, energy) excl bbr2: {log_corr:.2f}")
    assert corr > 0.2

    assert grid.most_retransmitting_cca() == "baseline"

    # The baseline's retransmissions dwarf every real CCA's.
    baseline_retx = min(
        grid.cell("baseline", mtu).mean_retransmissions for mtu in grid.mtus()
    )
    for cca in grid.ccas():
        if cca == "baseline":
            continue
        worst = max(
            grid.cell(cca, mtu).mean_retransmissions for mtu in grid.mtus()
        )
        assert baseline_retx > worst, cca
