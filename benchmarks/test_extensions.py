"""§5 extension benches — the paper's future-work agenda, executed.

* **Standardized CC energy benchmark** including the production
  algorithms the paper could not evaluate (Swift, DCQCN, HPCC): "we
  invite the community to build a benchmark for a standardized
  evaluation of such algorithms" — this is that benchmark.
* **SRPT transports**: energy + FCT of pFabric-style in-network SRPT vs
  fair sharing vs app-level serialization.
* **Incast**: energy vs fan-in at fixed aggregate bytes.
* **Load imbalance across links** under load-independent vs
  rate-adaptive switch hardware.
"""

import pytest

from benchmarks.conftest import run_benchmarked
from repro.analysis.tables import format_table
from repro.cc.registry import PRODUCTION_ALGORITHMS
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import run_repeated


def test_production_cca_energy_benchmark(benchmark):
    """Swift/DCQCN/HPCC vs cubic and the baseline, one table."""

    def run():
        rows = []
        for cca in ("cubic", "baseline") + PRODUCTION_ALGORITHMS:
            scenario = Scenario(
                name=f"prod-{cca}",
                flows=[FlowSpec(20_000_000, cca=cca)],
                packages=1,
                int_telemetry=(cca == "hpcc"),
            )
            result = run_repeated(scenario, repetitions=2)
            rows.append(
                (
                    cca,
                    result.mean_energy_j,
                    result.mean_power_w,
                    result.mean_duration_s * 1e3,
                    int(result.mean_retransmissions),
                )
            )
        return rows

    rows = run_benchmarked(benchmark, run)
    print("\n== standardized CC energy benchmark (incl. production CCAs) ==")
    print(
        format_table(
            ["cca", "energy (J)", "power (W)", "fct (ms)", "retx"], rows
        )
    )
    by_name = {r[0]: r for r in rows}
    # The production algorithms hit line rate without loss and land in
    # the efficient cluster — well below the no-CC baseline.
    for cca in PRODUCTION_ALGORITHMS:
        assert by_name[cca][1] < by_name["baseline"][1], cca
        assert by_name[cca][4] == 0, cca
        assert by_name[cca][1] < 1.25 * by_name["cubic"][1], cca


def test_srpt_transport_energy(benchmark):
    from repro.figures.srpt import run_srpt_comparison

    result = run_benchmarked(benchmark, run_srpt_comparison)
    print("\n== SRPT-approximating transports ==")
    print(result.format_table())
    # Fair sharing is the energy-worst schedule; in-network SRPT
    # (pFabric) recovers most of the serialized ideal's saving while
    # also improving mean FCT.
    arms = result.arms
    assert arms.savings_percent("srpt") > 5.0
    assert arms.savings_percent("serialized") > arms.savings_percent("srpt") - 5.0
    assert arms.fct_speedup("srpt") > 1.2


def test_incast_energy(benchmark):
    from repro.figures.incast import run_incast_sweep

    result = run_benchmarked(
        benchmark,
        lambda: run_incast_sweep(fan_ins=(1, 2, 4, 8), aggregate_bytes=20_000_000),
    )
    print("\n== incast: energy vs fan-in (fixed aggregate bytes) ==")
    print(result.format_table())
    print(f"energy growth 1 -> 8 senders: x{result.energy_growth():.2f}")
    # Fan-in is enforced fairness across hosts: energy grows steeply
    # even though the network work is constant.
    energies = [p.energy_j for p in result.points]
    assert all(b > a for a, b in zip(energies, energies[1:]))
    assert result.energy_growth() > 4.0


def test_load_imbalance_switch_energy(benchmark):
    from repro.figures.load_balance import run_hardware_comparison

    today, adaptive = run_benchmarked(benchmark, run_hardware_comparison)
    print("\n== load imbalance across links ==")
    print(today.format_table())
    print()
    print(adaptive.format_table())
    # Today's hardware: balance is energy-irrelevant. Rate-adaptive
    # hardware: consolidating and sleeping links saves.
    assert today.max_savings() == pytest.approx(0.0, abs=1e-12)
    assert adaptive.max_savings() > 0.03
