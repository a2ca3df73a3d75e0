"""A trace's ``metrics.prom``: written whoever opened the trace, and the
same families and counters at any ``jobs``.

The export is rendered from the one fold of the journal when the trace
closes, so it sees exactly the records the journal holds: its own and
the ones merged from pool workers.
"""

import pytest

from repro.figures.fig1 import run_fig1
from repro.harness.executor import WorkItem, run_work_items
from repro.harness.experiment import FlowSpec, Scenario
from repro.obs.observer import METRICS_PROM_FILENAME, TracingObserver

SIM_GAUGES = (
    "sim_events_per_second",
    "sim_pending_events",
    "sim_dead_in_queue",
    "sim_queued_events",
)

#: the counter families, whose values must not depend on ``jobs``
COUNTERS = (
    "journal_events_total",
    "runs_total",
    "cache_hits_total",
    "cache_misses_total",
    "worker_errors_total",
    "span_wall_seconds_count",
)


def _fig1(observer, jobs=None):
    return run_fig1(
        transfer_bytes=200_000, repetitions=1, fractions=(0.5,),
        observer=observer, jobs=jobs,
    )


def samples(trace):
    """``{sample name with labels: value}`` of a trace's metrics.prom."""
    text = (trace / METRICS_PROM_FILENAME).read_text(encoding="utf-8")
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            out[name] = float(value)
    return out


class TestATraceDirectoryIsClosed:
    def test_a_figure_driver_given_a_directory_leaves_the_exports(
        self, tmp_path
    ):
        _fig1(str(tmp_path / "t"))
        assert (tmp_path / "t" / METRICS_PROM_FILENAME).exists()
        assert (tmp_path / "t" / "metrics.json").exists()

    def test_run_work_items_given_a_directory_leaves_the_exports(
        self, tmp_path
    ):
        scenario = Scenario(name="one", flows=[FlowSpec(100_000)])
        run_work_items([WorkItem(scenario, 0)], observer=tmp_path / "t")
        assert samples(tmp_path / "t")["runs_total"] == 1

    def test_a_passed_observer_stays_open(self, tmp_path):
        with TracingObserver(tmp_path / "t") as obs:
            _fig1(obs)
            assert not (tmp_path / "t" / METRICS_PROM_FILENAME).exists()
            obs.emit("note")  # still writable after the driver returned
        assert samples(tmp_path / "t")['journal_events_total{event="note"}'] == 1


@pytest.fixture(scope="module")
def serial_and_pooled(tmp_path_factory):
    root = tmp_path_factory.mktemp("jobs")
    for name, jobs in (("serial", 1), ("pooled", 2)):
        with TracingObserver(root / name) as obs:
            _fig1(obs, jobs=jobs)
    return samples(root / "serial"), samples(root / "pooled")


class TestMetricsDoNotDependOnJobs:
    def test_same_metric_names_and_label_sets(self, serial_and_pooled):
        serial, pooled = serial_and_pooled
        assert sorted(serial) == sorted(pooled)

    def test_same_counter_values(self, serial_and_pooled):
        serial, pooled = serial_and_pooled
        counters = {
            name: value for name, value in serial.items()
            if name.split("{")[0] in COUNTERS
        }
        assert counters["runs_total"] == 2
        assert counters == {name: pooled[name] for name in counters}

    def test_both_export_the_sim_gauges(self, serial_and_pooled):
        for exported in serial_and_pooled:
            assert [name for name in SIM_GAUGES if name in exported] == list(
                SIM_GAUGES
            )
            assert exported["sim_events_per_second"] > 0
