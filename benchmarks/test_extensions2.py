"""Second extension bench set: workloads, subflows, mechanisms, friendliness.

* **Production workloads** (§5): web-search and data-mining traffic,
  fair vs SRPT — "SRPT is free".
* **Subflow multiplexing** (§2's MPTCP energy findings [59, 60]):
  sharing a package is free, spreading packages is ruinous.
"""

import pytest

from benchmarks.conftest import run_benchmarked


def test_production_workload_energy(benchmark):
    from repro.figures.workload_energy import run_workload_energy

    def run():
        return {
            dist: run_workload_energy(distribution=dist, seed=0)
            for dist in ("web-search", "data-mining")
        }

    results = run_benchmarked(benchmark, run)
    for dist, result in results.items():
        print(f"\n== {dist}: {len(result.workload.flows)} flows, "
              f"offered load {result.workload.offered_load:.2f} ==")
        print(result.format_table())
        print(f"SRPT: {result.fct_speedup:.2f}x mean FCT at "
              f"{result.energy_ratio:.3f}x energy")
        # SRPT never slows the mean flow and never costs extra energy.
        assert result.fct_speedup > 1.0
        assert result.energy_ratio < 1.1


def test_mptcp_subflow_energy(benchmark):
    from repro.figures.mptcp import run_mptcp_comparison

    result = run_benchmarked(benchmark, run_mptcp_comparison)
    print("\n== subflow multiplexing (MPTCP, [59]) ==")
    print(result.format_table())
    print(f"spread penalty: +{100 * result.spread_penalty():.0f}%")
    # Sharing a package is free; spreading is ruinous.
    assert result.arms["subflows-shared"].mean_energy_j == pytest.approx(
        result.arms["single"].mean_energy_j, rel=0.1
    )
    assert result.spread_penalty() > 1.0


def test_mechanism_energy_breakdown(benchmark):
    from repro.figures.mechanisms import run_mechanism_breakdown

    result = run_benchmarked(benchmark, run_mechanism_breakdown)
    print("\n== per-mechanism energy attribution (§5's future work) ==")
    print(result.format_table())
    # Every CCA's components must account for its measured total.
    for row in result.rows:
        assert sum(row.components_j.values()) == pytest.approx(
            row.total_j, rel=0.02
        )
    # The attributions explain the figures: the baseline's extra cost is
    # visible churn (retransmissions); BBR2's is pure time (idle floor).
    baseline = result.row("baseline")
    cubic = result.row("cubic")
    bbr2 = result.row("bbr2")
    assert baseline.components_j["retransmissions"] > 10 * max(
        cubic.components_j["retransmissions"], 1e-6
    )
    assert bbr2.components_j["idle"] > 1.2 * cubic.components_j["idle"]


def test_friendliness_matrix(benchmark):
    from repro.figures.friendliness import run_friendliness_matrix

    result = run_benchmarked(
        benchmark,
        lambda: run_friendliness_matrix(ccas=("cubic", "bbr", "reno", "dctcp")),
    )
    print("\n== CCA friendliness (head-to-head), with energy ==")
    print(result.format_table())
    for p in result.pairings:
        assert 0.0 <= p.share_a <= 1.0
        assert p.energy_j > 0
    # Unfair pairings exist (the deployment reality [55] documents)...
    assert any(p.mean_fairness < 0.8 for p in result.pairings)
    # ...and no pairing costs wildly more than another for the same work.
    energies = [p.energy_j for p in result.pairings]
    assert max(energies) < 1.25 * min(energies)
