"""Figure 6 / §4.3: average power per CCA and MTU.

Paper claims reproduced here:
* average power differs across CCAs (~14 % at MTU 1500),
* the power ranking differs from the energy ranking: corr(energy, power)
  across CCAs is strongly negative (paper: -0.8),
* BBR2 draws among the lowest power while costing the most energy.
"""

from benchmarks.conftest import run_benchmarked


def test_fig6_power_by_cca(benchmark, cca_mtu_grid):
    grid = cca_mtu_grid
    table = run_benchmarked(benchmark, grid.power_table)
    print("\n== Figure 6: average power by CCA and MTU ==")
    print(table)

    spread = grid.power_spread_fraction(1500)
    print(f"power spread across CCAs @1500: {100 * spread:.1f}% (paper: ~14%)")
    assert spread > 0.04

    # The paper computes this over the CCAs in the MTU-1500 ordering
    # context (§4.3): the low-power/high-energy outliers (bbr2, baseline)
    # dominate and flip the sign.
    corr = grid.energy_power_correlation(1500)
    print(f"corr(total energy, average power) @1500: {corr:.2f} (paper: -0.8)")
    print(f"corr @9000 (informational): {grid.energy_power_correlation(9000):.2f}")
    assert corr < -0.3

    # BBR2: low power, high energy — the paper's signature inversion
    # (visible in the MTU-1500 ordering both figures are sorted by).
    power_rank = grid.cca_order_by_power(1500)
    energy_rank = grid.cca_order_by_energy(1500)
    assert power_rank.index("bbr2") == 0, "bbr2 should draw the least power"
    assert energy_rank.index("bbr2") == len(energy_rank) - 1, (
        "bbr2 should cost the most energy"
    )

    # Smaller MTU -> more packets/second -> more power, for every CCA.
    for cca in cca_mtu_grid.ccas():
        assert grid.power_w(cca, 1500) > grid.power_w(cca, 9000), cca
