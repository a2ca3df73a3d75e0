"""Executor benchmarks: warm-cache speedup and jobs=1 / jobs=N parity.

Acceptance gates for the parallel, cacheable execution layer:

* a warm-cache rerun of the CCA x MTU grid completes >= 5x faster than
  the cold run that populated the cache (in practice it is orders of
  magnitude — JSON reads vs full simulations), and
* a batch run in-process (``jobs=1``) and over a process pool
  (``jobs=N``) produce identical measurements, so ``--jobs`` is purely
  a wall-clock knob.

Uses wall-clock timing directly (not pytest-benchmark rounds): the cold
run is a one-shot system experiment, like the figure benches.
"""

import time

from repro.figures.grid import run_cca_mtu_grid

from .conftest import BENCH_REPS

GRID_KWARGS = dict(
    transfer_bytes=4_000_000,
    mtus=(1500, 9000),
    ccas=("cubic", "bbr", "reno"),
    repetitions=BENCH_REPS,
    base_seed=0,
)


def test_warm_cache_rerun_is_5x_faster(tmp_path):
    cache_dir = tmp_path / "cache"

    start = time.perf_counter()
    cold = run_cca_mtu_grid(**GRID_KWARGS, cache_dir=cache_dir)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm = run_cca_mtu_grid(**GRID_KWARGS, cache_dir=cache_dir)
    warm_s = time.perf_counter() - start

    # bit-identical replay...
    for cell in cold.cells:
        twin = warm.cell(cell.cca, cell.mtu_bytes)
        assert cell.result.runs == twin.result.runs
    # ...at a fraction of the cost
    assert cold_s >= 5 * warm_s, (
        f"warm rerun not fast enough: cold {cold_s:.2f}s vs warm {warm_s:.2f}s"
    )


def test_process_backend_matches_serial(tmp_path):
    serial = run_cca_mtu_grid(**GRID_KWARGS)
    parallel = run_cca_mtu_grid(**GRID_KWARGS, jobs=4)
    for cell in serial.cells:
        twin = parallel.cell(cell.cca, cell.mtu_bytes)
        assert cell.mean_energy_j == twin.mean_energy_j
        assert cell.result.runs == twin.result.runs
