"""The executor layer: backend interchangeability and grid determinism.

The contract under test is the one the paper's methodology depends on:
a measurement is a pure function of (scenario spec, seed), so *how* the
grid executes — serially, across worker processes, via the cache —
must never change a single bit of the results.
"""

import multiprocessing
import os
import signal

import pytest

import repro.harness.executor as executor_module
from repro.cli import main
from repro.errors import ExperimentError
from repro.figures.grid import run_cca_mtu_grid
from repro.harness.executor import WorkItem, run_work_items
from repro.harness.cache import ResultCache
from repro.harness.experiment import FabricScenario, FlowSpec, Scenario
from repro.harness.runner import run_once, run_repeated
from repro.harness.sweep import Sweep
from repro.obs.journal import read_journal
from repro.obs.observer import TracingObserver

SIZE = 400_000


def tiny_scenario(name="exec", **overrides):
    defaults = dict(
        name=name, flows=[FlowSpec(SIZE)], packages=1
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def backend_and_workers(trace):
    """A traced batch's ``backend`` label and the pids that ran its items."""
    events = read_journal(trace)
    (started,) = [e for e in events if e["event"] == "batch_started"]
    workers = {e["worker"] for e in events if e["event"] == "run_finished"}
    return started["backend"], workers


class TestResolve:
    """``jobs`` alone picks how a batch runs, and the journal says which."""

    def test_default_is_serial(self, tmp_path):
        items = [WorkItem(scenario=tiny_scenario(), seed=s) for s in range(2)]
        for jobs in (None, 1):
            trace = tmp_path / f"jobs-{jobs}"
            with TracingObserver(trace) as obs:
                run_work_items(items, jobs=jobs, observer=obs)
            assert backend_and_workers(trace) == ("serial", {os.getpid()})

    def test_jobs_selects_process_pool(self, tmp_path):
        items = [WorkItem(scenario=tiny_scenario(), seed=s) for s in range(2)]
        with TracingObserver(tmp_path / "t") as obs:
            run_work_items(items, jobs=4, observer=obs)
        backend, workers = backend_and_workers(tmp_path / "t")
        assert backend == "process"
        assert workers and os.getpid() not in workers

    def test_bad_job_count_rejected(self):
        items = [WorkItem(scenario=tiny_scenario(), seed=0)]
        with pytest.raises(
            ExperimentError, match="need >= 1 worker process, got 0"
        ):
            run_work_items(items, jobs=0)


class TestBackendEquivalence:
    def test_process_pool_matches_serial(self):
        items = [WorkItem(scenario=tiny_scenario(), seed=s) for s in range(4)]
        serial = run_work_items(items)
        parallel = run_work_items(items, jobs=4)
        assert serial == parallel  # full dataclass equality, series included

    def test_order_follows_submission_not_completion(self):
        # A bigger (slower) first item must not let item 2 overtake it.
        items = [
            WorkItem(scenario=tiny_scenario("slow", flows=[FlowSpec(4 * SIZE)]), seed=0),
            WorkItem(scenario=tiny_scenario("fast"), seed=1),
        ]
        results = run_work_items(items, jobs=2)
        assert [r.scenario for r in results] == ["slow", "fast"]
        assert [r.seed for r in results] == [0, 1]

    def test_seed_is_per_item(self):
        items = [WorkItem(scenario=tiny_scenario(), seed=7)]
        (result,) = run_work_items(items, jobs=2)
        assert result == run_once(tiny_scenario(), seed=7)

    def test_run_repeated_jobs_matches_serial(self):
        scenario = tiny_scenario()
        serial = run_repeated(scenario, repetitions=3, base_seed=5)
        parallel = run_repeated(scenario, repetitions=3, base_seed=5, jobs=3)
        assert [r.energy_j for r in serial.runs] == [
            r.energy_j for r in parallel.runs
        ]


class TestGridDeterminism:
    """jobs=1 and jobs=4 runs of the CCA x MTU grid are bit-identical."""

    @pytest.fixture(scope="class")
    def grids(self):
        kwargs = dict(
            transfer_bytes=SIZE,
            mtus=(1500, 9000),
            ccas=("cubic", "bbr"),
            repetitions=2,
            base_seed=3,
        )
        return (
            run_cca_mtu_grid(**kwargs, jobs=1),
            run_cca_mtu_grid(**kwargs, jobs=4),
        )

    def test_mean_energy_identical_per_cell(self, grids):
        serial, parallel = grids
        for cell in serial.cells:
            twin = parallel.cell(cell.cca, cell.mtu_bytes)
            assert cell.mean_energy_j == twin.mean_energy_j

    def test_every_run_identical(self, grids):
        serial, parallel = grids
        for cell in serial.cells:
            twin = parallel.cell(cell.cca, cell.mtu_bytes)
            assert cell.result.runs == twin.result.runs


class TestFailedBatch:
    def test_what_finished_before_a_failed_item_is_replayed(self, tmp_path):
        ok = tiny_scenario("finished")
        starved = FabricScenario(
            name="starved-fabric", n_flows=20, mix="rpc", leaves=2, spines=1,
            hosts_per_leaf=4, time_limit_s=1e-7,
        )
        items = [WorkItem(ok, 0), WorkItem(starved, 0)]
        with pytest.raises(ExperimentError, match="time limit"):
            run_work_items(items, jobs=1, cache=tmp_path / "cache")
        replay = ResultCache(tmp_path / "cache")
        (measurement,) = run_work_items([WorkItem(ok, 0)], cache=replay)
        assert (replay.hits, replay.misses) == (1, 0)
        assert measurement == run_once(ok, seed=0)


class TestSweepParallel:
    def test_sweep_rows_identical_across_backends(self):
        sweep = Sweep({"mtu": [1500, 9000]})

        def factory(mtu):
            return tiny_scenario(f"sweep-{mtu}", mtu_bytes=mtu)

        serial = sweep.run(factory, repetitions=2)
        parallel = sweep.run(factory, repetitions=2, jobs=2)
        for a, b in zip(serial.rows, parallel.rows):
            assert a.params == b.params
            assert a.result.runs == b.result.runs

    def test_sweep_rejects_zero_repetitions(self):
        with pytest.raises(ExperimentError, match="repetition"):
            Sweep({"mtu": [1500]}).run(lambda mtu: tiny_scenario(), repetitions=0)


@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="the workers inherit the patched run_once only when forked",
)
class TestKilledWorker:
    """A worker killed mid-item (the OOM killer, a kill -9) ends the
    batch in one library error naming the first item without a result.
    The worker running seed 0 dies, so that is the first item."""

    @pytest.fixture(autouse=True)
    def kill_on_seed_zero(self, monkeypatch):
        real = executor_module.run_once

        def run_once(scenario, seed, *args, **kwargs):
            if seed == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(scenario, seed, *args, **kwargs)

        monkeypatch.setattr(executor_module, "run_once", run_once)

    def test_the_batch_raises_naming_the_first_unfinished_item(self):
        items = [WorkItem(tiny_scenario("doomed"), seed) for seed in range(3)]
        with pytest.raises(ExperimentError) as caught:
            run_work_items(items, jobs=2)
        message = str(caught.value)
        assert "item 0 (scenario 'doomed', seed 0)" in message
        assert "\n" not in message

    def test_the_cli_prints_one_error_line_and_exits_one(self, capsys):
        code = main(["fig1", "--bytes", "400000", "--reps", "2", "--jobs", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "item 0 (scenario 'fig1-limited-0.10', seed 0)" in captured.err
        assert captured.out == ""
