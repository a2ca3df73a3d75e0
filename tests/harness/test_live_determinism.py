"""Watching a sweep must not change it: live-tail, zero bits moved.

The acceptance bar for ``greenenvy obs watch``: a sweep whose journal
partials are tailed mid-run produces measurements, journal events, and
telemetry records bit-identical to the same sweep run unwatched —
serial and with a process pool. The watcher only ever reads; the one
sanctioned write is the ``abort.requested`` flag, which is its own test.
"""

import threading
import time

import pytest

from repro.errors import SweepAbortedError
from repro.harness.executor import WorkItem, run_work_items
from repro.harness.experiment import FlowSpec, Scenario
from repro.obs.journal import ABORT_FILENAME, VOLATILE_FIELDS, read_journal
from repro.obs.live import LiveSweepView, request_abort
from repro.obs.observer import TracingObserver
from repro.obs.telemetry import read_telemetry

SIZE = 400_000


def tiny_scenario(name="live", **overrides):
    defaults = dict(name=name, flows=[FlowSpec(SIZE)], packages=1)
    defaults.update(overrides)
    return Scenario(**defaults)


def items_for(n=4):
    scenario = tiny_scenario()
    return [WorkItem(scenario=scenario, seed=seed) for seed in range(n)]


def stable_events(journal_source):
    """Journal events with the volatile diagnostics stripped."""
    return [
        {k: v for k, v in event.items() if k not in VOLATILE_FIELDS}
        for event in read_journal(journal_source)
    ]


def telemetry_key(record):
    return (
        record["scenario"], record["seed"], record["channel"],
        record["entity"],
    )


class Watcher:
    """A background thread that tails a trace dir while a sweep runs.

    This is ``obs watch``, concentrated: poll the journal and its
    partials as fast as they appear and keep every snapshot.
    """

    def __init__(self, trace):
        self.trace = trace
        self.snapshots = []
        self.polls = 0
        self._attached = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        view = LiveSweepView(self.trace)
        while not self._stop.is_set():
            view.poll()
            self.snapshots.append(view.snapshot())
            self.polls += 1
            self._attached.set()
            time.sleep(0.01)
        # One last poll after the sweep finished: the terminal events
        # are committed by then.
        view.poll()
        self.snapshots.append(view.snapshot())

    def __enter__(self):
        # Attached means the first poll ran: the sweep in the ``with``
        # body starts under a watcher that is already tailing, however
        # short the sweep is.
        self._thread.start()
        assert self._attached.wait(timeout=30)
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=30)
        assert not self._thread.is_alive()


class TestWatchedSweepIsBitIdentical:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_watched_equals_unwatched(self, tmp_path, jobs):
        quiet = tmp_path / "quiet"
        watched = tmp_path / "watched"
        watched.mkdir()  # the watcher attaches before the sweep starts
        with TracingObserver(quiet) as obs:
            plain = run_work_items(items_for(), jobs=jobs, observer=obs)
        with Watcher(watched) as watcher, TracingObserver(watched) as obs:
            observed = run_work_items(items_for(), jobs=jobs, observer=obs)
        assert observed == plain
        # Order-normalised journal equality, as in
        # test_trace_determinism: with a pool, item-less span events
        # interleave by worker scheduling even between two unwatched
        # runs; the event *set* is the deterministic contract.
        key = lambda e: sorted(  # noqa: E731
            (k, repr(v)) for k, v in e.items()
        )
        assert sorted(stable_events(watched), key=key) == sorted(
            stable_events(quiet), key=key
        )
        assert sorted(
            read_telemetry(watched), key=telemetry_key
        ) == sorted(read_telemetry(quiet), key=telemetry_key)
        assert watcher.polls >= 1

    def test_watcher_converges_on_the_finished_sweep(self, tmp_path):
        trace = tmp_path / "trace"
        trace.mkdir()
        with Watcher(trace) as watcher, TracingObserver(trace) as obs:
            run_work_items(items_for(), observer=obs)
        final = watcher.snapshots[-1]
        assert final.complete
        assert not final.aborted
        assert final.items_total == 4
        assert final.items_done == 4
        assert final.runs_finished == 4


class TestExternalAbort:
    def test_abort_request_stops_the_sweep_and_the_watch_sees_it(
        self, tmp_path
    ):
        # The flag is dropped deterministically from the completion hook
        # (a real watcher writes the same file from outside); the traced
        # batch reads it before its next item and deletes it.
        trace = tmp_path / "trace"
        trace.mkdir()

        def hook(index, item, measurement):
            if index == 1:
                request_abort(trace, "watcher says stop")

        with TracingObserver(trace) as obs:
            with pytest.raises(SweepAbortedError) as excinfo:
                run_work_items(items_for(), observer=obs, on_result=hook)
        exc = excinfo.value
        assert exc.reason == "watcher says stop"
        assert sorted(exc.partial) == [0, 1]
        assert not (trace / ABORT_FILENAME).exists()
        assert "batch_aborted" in [
            e["event"] for e in read_journal(trace)
        ]
        view = LiveSweepView(trace)
        view.poll()
        progress = view.snapshot()
        assert progress.aborted
        assert progress.complete  # terminal event did arrive
        assert progress.abort_reason == "watcher says stop"
