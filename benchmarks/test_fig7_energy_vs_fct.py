"""Figure 7 / §4.5: energy vs flow completion time.

Paper claims reproduced here:
* energy is strongly, positively correlated with FCT,
* runs separate into two clusters: MTU >= 3000 (fast/cheap, bottom-left)
  and MTU 1500 (pps-bound, slow/expensive, top-right).
"""

from benchmarks.conftest import run_benchmarked


def test_fig7_energy_vs_fct(benchmark, cca_mtu_grid):
    grid = cca_mtu_grid
    table = run_benchmarked(benchmark, grid.fct_table)
    print("\n== Figure 7: energy vs flow completion time ==")
    print(table)

    corr = grid.energy_fct_correlation()
    print(f"corr(FCT, energy): {corr:.2f} (paper: strongly positive)")
    assert corr > 0.7

    small_cluster, large_cluster = grid.fct_cluster_means()
    print(
        f"MTU-1500 cluster:  fct={small_cluster[0]:.4f}s "
        f"energy={small_cluster[1]:.3f}J"
    )
    print(
        f"MTU>=3000 cluster: fct={large_cluster[0]:.4f}s "
        f"energy={large_cluster[1]:.3f}J"
    )
    # The paper's two clusters: 1500-byte runs are slower AND costlier.
    assert small_cluster[0] > 1.3 * large_cluster[0]
    assert small_cluster[1] > 1.1 * large_cluster[1]
