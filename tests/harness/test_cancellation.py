"""Stopping a sweep: the abort flag, mid-batch aborts, partial salvage.

The contract: a stopped sweep is not a crashed sweep. Every finished
measurement survives (on the exception, in the cache, in the journal),
the abort is journaled with its reason, and an ``on_result`` hook that
never raises changes nothing — bit-for-bit.
"""

import pytest

from repro.errors import SweepAbortedError
from repro.figures.fabric import FabricResult, run_fabric_figure
from repro.figures.fig1 import Fig1Result, run_fig1
from repro.figures.pareto import ParetoResult, run_pareto
from repro.harness.cache import ResultCache
from repro.harness.executor import (
    WorkItem,
    consume_abort_flag,
    run_work_items,
)
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.sweep import Sweep
from repro.obs.journal import ABORT_FILENAME, read_journal
from repro.obs.observer import TracingObserver

SIZE = 400_000


def tiny_scenario(name="cancel", **overrides):
    defaults = dict(name=name, flows=[FlowSpec(SIZE)], packages=1)
    defaults.update(overrides)
    return Scenario(**defaults)


def items_for(n=4):
    return [WorkItem(scenario=tiny_scenario(), seed=seed) for seed in range(n)]


def stop_after(count, reason="enough"):
    """An on_result hook that stops the batch at its ``count``-th result."""
    seen = []

    def hook(index, item, measurement):
        seen.append(index)
        if len(seen) >= count:
            raise SweepAbortedError(reason)

    return hook, seen


class TestAbortFlag:
    def test_first_line_is_the_reason(self, tmp_path):
        flag = tmp_path / ABORT_FILENAME
        flag.write_text("stop now\nsecond line\n")
        with pytest.raises(SweepAbortedError) as excinfo:
            consume_abort_flag(tmp_path)
        assert excinfo.value.reason == "stop now"
        # Acting on the flag deletes it: it stops one batch, once.
        assert not flag.exists()
        consume_abort_flag(tmp_path)

    def test_plain_touch_counts_as_abort(self, tmp_path):
        (tmp_path / ABORT_FILENAME).write_text("")
        with pytest.raises(SweepAbortedError, match="abort file present"):
            consume_abort_flag(tmp_path)

    def test_flag_stops_one_batch_and_not_the_rerun(self, tmp_path):
        trace = tmp_path / "trace"
        trace.mkdir()
        (trace / ABORT_FILENAME).write_text("operator stop\n")
        with TracingObserver(trace) as obs:
            with pytest.raises(SweepAbortedError, match="operator stop"):
                run_work_items(items_for(2), observer=obs)
        assert not (trace / ABORT_FILENAME).exists()
        with TracingObserver(trace) as obs:
            assert len(run_work_items(items_for(2), observer=obs)) == 2


class TestMidBatchAbort:
    def test_serial_abort_keeps_finished_items(self):
        hook, seen = stop_after(2, reason="two is plenty")
        with pytest.raises(SweepAbortedError) as excinfo:
            run_work_items(items_for(4), on_result=hook)
        exc = excinfo.value
        assert sorted(exc.partial) == [0, 1]
        assert seen == [0, 1]
        assert exc.reason == "two is plenty"
        assert "2/4" in str(exc)

    def test_process_abort_keeps_finished_items(self):
        hook, seen = stop_after(1)
        with pytest.raises(SweepAbortedError) as excinfo:
            run_work_items(items_for(4), jobs=2, on_result=hook)
        exc = excinfo.value
        # In-flight items may still drain, but the batch stopped early
        # and everything reported finished carries a real measurement.
        assert 1 <= len(exc.partial) < 4
        assert 0 in exc.partial
        for index, measurement in exc.partial.items():
            assert measurement.energy_j > 0.0

    def test_abort_on_a_cache_hit_dispatches_nothing(self, tmp_path):
        # Hits are handed to the hook before any miss runs, inside the
        # batch's salvage: stopping on one runs nothing fresh, and every
        # hit is kept as finished work.
        cache = ResultCache(tmp_path / "cache")
        items = items_for(3)
        [stored] = run_work_items(items[1:2], cache=cache)
        hook, seen = stop_after(1, reason="drifted hit")
        trace = tmp_path / "trace"
        with TracingObserver(trace) as obs:
            with pytest.raises(SweepAbortedError) as excinfo:
                run_work_items(
                    items, cache=cache, observer=obs, on_result=hook
                )
        assert seen == [1]
        assert excinfo.value.partial == {1: stored}
        assert "1/3" in str(excinfo.value)
        events = [e["event"] for e in read_journal(trace)]
        assert "run_started" not in events
        assert "batch_aborted" in events

    def test_idle_control_changes_no_bits(self):
        # A hook that never raises must not perturb the measurements:
        # same results as a batch run without one.
        seen = []
        plain = run_work_items(items_for(4))
        watched = run_work_items(
            items_for(4), on_result=lambda i, item, m: seen.append(i)
        )
        assert watched == plain
        assert seen == [0, 1, 2, 3]


class TestAbortSalvage:
    def test_partial_is_stored_to_cache_and_replayable(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        hook, _ = stop_after(2)
        with pytest.raises(SweepAbortedError) as excinfo:
            run_work_items(items_for(4), cache=cache, on_result=hook)
        aborted = excinfo.value
        assert sorted(aborted.partial) == [0, 1]
        # The rerun replays the salvaged items as cache hits (notified
        # first, in submission order) and computes only the rest.
        seen = []
        results = run_work_items(
            items_for(4), cache=cache, on_result=lambda i, item, m: seen.append(i)
        )
        assert len(results) == 4
        assert seen == [0, 1, 2, 3]
        assert results[0] == aborted.partial[0]
        assert results[1] == aborted.partial[1]

    def test_abort_file_in_trace_dir_stops_traced_run(self, tmp_path):
        trace = tmp_path / "trace"
        trace.mkdir()
        (trace / ABORT_FILENAME).write_text("external stop\n")
        with TracingObserver(trace) as obs:
            with pytest.raises(SweepAbortedError, match="external stop"):
                run_work_items(items_for(2), observer=obs)
        events = read_journal(trace)
        aborts = [e for e in events if e["event"] == "batch_aborted"]
        assert len(aborts) == 1
        assert aborts[0]["reason"] == "external stop"
        assert aborts[0]["completed"] == 0
        assert not (trace / ABORT_FILENAME).exists()

    def test_sweep_salvages_complete_grid_points(self):
        sweep = Sweep({"mtu": [1500, 9000]})
        # Stop mid-way through the second grid point: reps=2, so after
        # 3 results grid point 0 is whole and point 1 is not.
        hook, _ = stop_after(3, reason="mid grid point")
        with pytest.raises(SweepAbortedError) as excinfo:
            sweep.run(
                lambda mtu: tiny_scenario(f"sweep-{mtu}", mtu_bytes=mtu),
                repetitions=2,
                on_result=hook,
            )
        partial = excinfo.value.partial_sweep
        assert [row.params["mtu"] for row in partial.rows] == [1500]
        assert len(partial.rows[0].result.runs) == 2
        assert excinfo.value.partial_figure is None  # no builder given

    def test_uncancelled_batch_error_carries_no_views(self):
        # Declared attributes: present (None) even below the sweep layer.
        hook, _ = stop_after(1)
        with pytest.raises(SweepAbortedError) as excinfo:
            run_work_items(items_for(2), on_result=hook)
        assert excinfo.value.partial_sweep is None
        assert excinfo.value.partial_figure is None

    @pytest.mark.parametrize(
        "run, kwargs, result_type, points",
        [
            (
                run_fig1,
                dict(transfer_bytes=SIZE, fractions=(0.3,), repetitions=1),
                Fig1Result,
                lambda figure: len(figure.points),
            ),
            (
                run_fabric_figure,
                dict(
                    ccas=("dctcp",), n_flows=20, mix="rpc",
                    leaves=2, spines=1, hosts_per_leaf=2,
                ),
                FabricResult,
                lambda figure: sum(len(arms) for arms in figure.arms.values()),
            ),
            (
                run_pareto,
                dict(
                    policies=("fair", "serialized"),
                    link_batch=(SIZE, SIZE // 2), n_flows=20,
                    leaves=2, spines=1, hosts_per_leaf=2,
                ),
                ParetoResult,
                lambda figure: sum(len(arms) for arms in figure.arms.values()),
            ),
        ],
        ids=["fig1", "fabric", "pareto"],
    )
    def test_figures_get_their_partial_from_the_sweep(
        self, run, kwargs, result_type, points
    ):
        # One salvage site (Sweep.run) serves every figure driver: the
        # figure's own rows -> result builder is applied to the grid
        # points that finished. Stopping at the first result leaves
        # exactly one point (fabric and pareto run fair first, which is
        # what makes their lone point reportable).
        hook, _ = stop_after(1, reason="figure salvage")
        with pytest.raises(SweepAbortedError) as excinfo:
            run(on_result=hook, **kwargs)
        exc = excinfo.value
        assert len(exc.partial_sweep.rows) == 1
        assert isinstance(exc.partial_figure, result_type)
        assert points(exc.partial_figure) == 1
        assert exc.partial_figure.format_table()  # renders with arms missing
