"""Live sweep watching: tail a trace directory while the sweep runs.

This is the streaming half of the observability layer: incremental
aggregation, so a sweep's progress and drift are known while it runs.
Everything here is a *reader* of the trace directory a
:class:`~repro.obs.observer.TracingObserver` populates:

* :class:`JournalTail` — byte-offset tailer of one append-only JSONL
  file; only consumes up to the last committed newline, so a torn,
  in-progress line is never parsed (and never an error). A file
  replaced under it (a rerun reclaimed the directory) is an error.
* :class:`LiveSweepView` — tails the coordinator's ``journal.jsonl``
  *and* the per-worker ``worker-*.jsonl`` partials, deduplicating the
  events the coordinator later merges, and folds everything into a
  :class:`~repro.obs.progress.ProgressTracker`.
* :class:`DriftGate` — the incremental ``obs diff``: as scenarios
  *settle* (all their repetitions finished), their metrics are compared
  against a committed baseline, and the first drift latches with its
  reason. Acting on it is the caller's: the CLI's in-process hook raises
  :class:`~repro.errors.SweepAbortedError`, ``obs watch
  --abort-on-drift`` calls :func:`request_abort`.

Watching must never change a run. Every class here opens files
read-only; the single deliberate exception is :func:`request_abort`
writing the abort flag file, which is the documented stop channel, not
hidden feedback — results that *do* complete are still bit-identical,
the sweep just ends early with :class:`~repro.errors.SweepAbortedError`.

Import note: this module is intentionally *not* re-exported from
``repro.obs`` — it may import nothing from ``repro.harness`` (the
executor imports ``repro.obs.journal``, so a harness import here would
be circular through the package ``__init__``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from repro.errors import ObservabilityError
from repro.obs.baseline import (
    FAIR_SUFFIX,
    DriftRow,
    compare,
    has_regression,
    load_baseline,
    snapshot_from_journal,
)
from repro.obs.journal import ABORT_FILENAME, JOURNAL_FILENAME, WORKER_GLOB
from repro.obs.progress import ProgressTracker, SweepProgress


def request_abort(trace_dir: Union[str, Path], reason: str) -> Path:
    """Create the trace directory's abort flag file (cooperative stop).

    The running coordinator reads this file between item completions
    and deletes it as it stops the batch (see
    :func:`repro.harness.executor.consume_abort_flag`); creating it is
    how an external watcher stops a sweep it does not own.
    """
    flag = Path(trace_dir) / ABORT_FILENAME
    flag.write_text(reason + "\n", encoding="utf-8")
    return flag


def _dedup_key(record: Mapping[str, Any]) -> str:
    # Worker events are merged into the coordinator journal verbatim
    # (same sort_keys serialization), so exact content is the identity.
    return json.dumps(record, sort_keys=True)


class JournalTail:
    """Incremental reader of one append-only JSONL file.

    :meth:`poll` returns the records appended since the last call.
    Only bytes up to the last ``"\\n"`` are consumed — a torn final
    line stays in the file for the next poll, once its writer commits
    the newline. A *terminated* line that fails to parse is counted in
    :attr:`bad_lines` and skipped (a tailer cannot raise its producer's
    bugs mid-run; ``obs report`` does the strict post-mortem read).

    A file shorter than the offset, or no longer starting with the line
    the tail read first, was replaced (a new run claimed the directory):
    :meth:`poll` raises :class:`ObservabilityError` rather than fold two
    runs' records. The first line, stamped with its run's clock and
    pid, names the file better than an inode number, which is reused.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.offset = 0
        self.bad_lines = 0
        #: the first committed line, once read
        self._head = b""

    def poll(self) -> List[Dict[str, Any]]:
        try:
            handle = self.path.open("rb")
        except OSError:
            return []
        with handle:
            size = os.fstat(handle.fileno()).st_size
            if self._head and (
                size < self.offset
                or handle.read(len(self._head)) != self._head
            ):
                raise ObservabilityError(
                    f"{self.path} was replaced while it was watched "
                    "(a new run reclaimed the trace directory)"
                )
            if size <= self.offset:
                return []
            handle.seek(self.offset)
            chunk = handle.read(size - self.offset)
        cut = chunk.rfind(b"\n")
        if cut < 0:
            return []
        committed = chunk[: cut + 1]
        if not self._head:
            self._head = committed[: committed.index(b"\n") + 1]
        self.offset += cut + 1
        records: List[Dict[str, Any]] = []
        for raw in committed.decode("utf-8", errors="replace").splitlines():
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                self.bad_lines += 1
                continue
            if isinstance(record, dict) and "event" in record:
                records.append(record)
            else:
                self.bad_lines += 1
        return records


class LiveSweepView:
    """Aggregate a running sweep's journal + worker partials, live.

    The coordinator journals batch/sweep/cache events directly to
    ``journal.jsonl``; pool workers journal run events to their own
    ``worker-<pid>.jsonl``, which the coordinator merges into the main
    journal (and deletes) after the batch. A live reader therefore sees
    most worker events twice. Dedup is by exact record content with the
    coordinator's ``worker`` id (learned from the journal's first
    event) telling the two sources apart:

    * a journal event from a *different* worker is a merged copy — if a
      partial already delivered it, it is dropped; otherwise it counts
      (and is remembered, in case the partial file is read afterwards);
    * a partial event already counted via the merged journal is
      likewise dropped.
    """

    def __init__(
        self,
        trace_dir: Union[str, Path],
        on_event: Optional[Callable[[Mapping[str, Any]], None]] = None,
    ):
        self.trace_dir = Path(trace_dir)
        if not self.trace_dir.is_dir():
            raise ObservabilityError(f"no trace directory at {self.trace_dir}")
        self.tracker = ProgressTracker()
        self.on_event = on_event
        self._journal = JournalTail(self.trace_dir / JOURNAL_FILENAME)
        self._partials: Dict[str, JournalTail] = {}
        self._coordinator: Optional[int] = None
        self._pending: Dict[str, int] = {}
        self._seen_merged: Dict[str, int] = {}

    @property
    def bad_lines(self) -> int:
        return self._journal.bad_lines + sum(
            tail.bad_lines for tail in self._partials.values()
        )

    def _consume(self, counter: Dict[str, int], key: str) -> bool:
        """Decrement ``counter[key]`` if positive; True when consumed."""
        count = counter.get(key, 0)
        if count <= 0:
            return False
        if count == 1:
            del counter[key]
        else:
            counter[key] = count - 1
        return True

    def poll(self) -> List[Dict[str, Any]]:
        """Drain new events from every tail, deduplicated and folded."""
        fresh: List[Dict[str, Any]] = []
        for record in self._journal.poll():
            worker = record.get("worker")
            if self._coordinator is None and isinstance(worker, int):
                # The journal's first event (batch/sweep header) is
                # always coordinator-written.
                self._coordinator = worker
            if (
                isinstance(worker, int)
                and self._coordinator is not None
                and worker != self._coordinator
            ):
                key = _dedup_key(record)
                if self._consume(self._pending, key):
                    continue  # already counted from the partial
                self._seen_merged[key] = self._seen_merged.get(key, 0) + 1
            fresh.append(record)
        for path in sorted(self.trace_dir.glob(WORKER_GLOB)):
            tail = self._partials.get(path.name)
            if tail is None:
                tail = JournalTail(path)
                self._partials[path.name] = tail
            for record in tail.poll():
                key = _dedup_key(record)
                if self._consume(self._seen_merged, key):
                    continue  # merged copy was counted first
                self._pending[key] = self._pending.get(key, 0) + 1
                fresh.append(record)
        self.tracker.observe_all(fresh)
        if self.on_event is not None:
            for record in fresh:
                self.on_event(record)
        return fresh

    def snapshot(self) -> SweepProgress:
        return self.tracker.snapshot()


class DriftGate:
    """Incremental ``obs diff``: gate scenarios as they settle.

    A scenario is *settled* once ``repetitions`` of its runs have been
    seen; from then on its per-scenario means are final and comparable
    against the committed baseline — there is no need to wait for the
    rest of the grid. Savings-vs-fair metrics additionally wait for the
    scenario's ``<prefix>-fair`` sibling to settle.

    Its one feed is :meth:`observe_event`, which takes journal events:
    ``obs watch`` tails them (fresh runs only, cache hits carry no
    metrics), and the in-process ``--abort-on-drift`` hook builds a
    ``run_finished`` record from every measurement, cached ones too
    (:meth:`~repro.harness.runner.RunMeasurement.summary`). On the
    first regression the gate latches :attr:`drifted`, records the
    gating rows and the :attr:`reason`; it stops nothing itself.
    """

    def __init__(
        self,
        baseline: Union[str, Path, Mapping[str, Any]],
        repetitions: Optional[int] = None,
    ):
        if isinstance(baseline, (str, Path)):
            baseline = load_baseline(baseline)
        self.baseline: Dict[str, Any] = dict(baseline)
        self.repetitions = repetitions
        self.drifted = False
        self.reason: Optional[str] = None
        self.gating_rows: List[DriftRow] = []
        self._runs: Dict[str, List[Dict[str, Any]]] = {}
        self._settled: List[str] = []

    @property
    def settled(self) -> List[str]:
        return list(self._settled)

    def observe_event(self, record: Mapping[str, Any]) -> None:
        """Feed one journal event."""
        event = record.get("event")
        if event == "sweep_started" and self.repetitions is None:
            reps = record.get("repetitions")
            if isinstance(reps, int) and reps > 0:
                self.repetitions = reps
        elif event == "run_finished":
            scenario = str(record.get("scenario", "?"))
            runs = self._runs.setdefault(scenario, [])
            runs.append(
                {
                    "event": "run_finished",
                    "scenario": record.get("scenario"),
                    "energy_j": record.get("energy_j", 0.0),
                    "sim_time_s": record.get("sim_time_s", 0.0),
                    "counters": record.get("counters") or {},
                    "extras": record.get("extras") or {},
                }
            )
            if (
                self.repetitions is not None
                and len(runs) == self.repetitions
                and scenario not in self._settled
            ):
                self._settled.append(scenario)
                self._evaluate()

    def _baseline_subset(self) -> Dict[str, Any]:
        settled = set(self._settled)
        metrics: Dict[str, float] = {}
        for key, value in dict(self.baseline.get("metrics") or {}).items():
            scenario, _, leaf = key.rpartition("/")
            if scenario in ("", "total") or scenario not in settled:
                continue
            if leaf == "savings_vs_fair_percent":
                # Comparable only once the fair sibling settled too.
                fair = scenario.split("-", 1)[0] + FAIR_SUFFIX
                if fair not in settled:
                    continue
            metrics[key] = value
        return {"metrics": metrics}

    def _evaluate(self) -> None:
        # Called each time a scenario settles.
        if self.drifted:
            return
        records = [
            record
            for scenario in self._settled
            for record in self._runs[scenario][: self.repetitions]
        ]
        if not records:
            return
        current = snapshot_from_journal(records)
        rows = compare(self._baseline_subset(), current)
        # Metrics absent from the baseline ("new") never gate here;
        # "missing" can only mean a settled scenario lost a metric.
        gating = [row for row in rows if row.gating]
        if not has_regression(rows):
            return
        self.drifted = True
        self.gating_rows = gating
        worst = ", ".join(row.key for row in gating[:3])
        extra = "" if len(gating) <= 3 else f" (+{len(gating) - 3} more)"
        self.reason = f"drift vs baseline: {worst}{extra}"
