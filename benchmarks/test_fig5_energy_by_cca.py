"""Figure 5 / §4.3-§4.4: total energy per CCA and MTU.

Paper claims reproduced here:
* every real CCA (except BBR2) uses less energy than the no-CC baseline
  (paper band: 8.2-14.2 % less),
* BBR2-alpha uses ~40 % more energy than BBR,
* raising the MTU from 1500 to 9000 bytes saves energy for every CCA
  (paper band: 13.4-31.9 %).
"""

from benchmarks.conftest import run_benchmarked


def test_fig5_energy_by_cca(benchmark, cca_mtu_grid):
    grid = cca_mtu_grid
    table = run_benchmarked(benchmark, grid.energy_table)
    print("\n== Figure 5: energy by CCA and MTU ==")
    print(table)

    # Real CCAs beat the baseline at every MTU.
    for mtu in cca_mtu_grid.mtus():
        overheads = grid.baseline_overhead_fraction(mtu)
        for cca, saving in overheads.items():
            if cca == "bbr2":
                continue
            assert saving > 0, f"{cca}@{mtu} should beat baseline"
        band = [s for c, s in overheads.items() if c != "bbr2"]
        print(
            f"CCA-vs-baseline savings @ MTU {mtu}: "
            f"{100 * min(band):.1f}%..{100 * max(band):.1f}% "
            f"(paper @1500: 8.2%..14.2%)"
        )

    # BBR2's alpha-release overhead vs BBR (paper: ~40 %).
    gap = grid.bbr2_vs_bbr_fraction(9000)
    print(f"BBR2 vs BBR energy overhead @9000: {100 * gap:.0f}% (paper: ~40%)")
    assert 0.2 <= gap <= 0.7

    # Larger MTUs save energy for every algorithm.
    for cca in cca_mtu_grid.ccas():
        saving = grid.mtu_savings_fraction(cca)
        print(f"MTU 1500->9000 saving for {cca}: {100 * saving:.1f}%")
        assert saving > 0.08, cca
