"""Structured JSONL run journal: one event stream per sweep.

Every event is one JSON object per line with at least::

    {"event": "run_started", "t_wall": 1723.201, "worker": 4021, ...}

``t_wall`` is a wall-clock timestamp and ``worker`` the emitting
process id — *diagnostic* fields only, excluded from any determinism
contract. Everything else on an event (scenario name, seed, cache key,
item index, simulated duration, measurement counters) is a pure
function of the work item and therefore identical between ``jobs=1``
and ``jobs=N`` runs; ``tests/harness/test_trace_determinism.py`` holds
the pipeline to that.

Process-pool safety: workers never share a file. Each worker process
appends to its own ``worker-<pid>.jsonl`` inside the trace directory
and the coordinator merges the partials into the main ``journal.jsonl``
after the batch, ordered by work-item index (stable within an item) —
the :mod:`repro.obs.stream` life cycle, which telemetry and profiles
share. Results never flow through the journal, so determinism of
measurements is untouched whether tracing is on or off.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.obs.stream import StreamSpec, StreamWriter

#: filename of the coordinator's merged journal inside a trace dir
JOURNAL_FILENAME = "journal.jsonl"

#: glob pattern of per-worker partial journals awaiting merge
WORKER_GLOB = "worker-*.jsonl"

#: flag file inside a trace dir requesting a sweep abort; external
#: watchers (``greenenvy obs watch --abort-on-drift``) create it, and the
#: coordinator reads it between item completions and deletes it as it
#: stops (see :func:`repro.harness.executor.consume_abort_flag`)
ABORT_FILENAME = "abort.requested"

#: event fields that are diagnostic (wall clock / process identity) and
#: therefore excluded from determinism comparisons
VOLATILE_FIELDS = frozenset({"t_wall", "worker", "wall_s", "events_per_s"})


def wall_clock() -> float:
    """Wall-clock timestamp for journal events.

    Isolated here so the determinism lint rule is suppressed exactly
    once: journal timestamps are diagnostics and never reach results.
    """
    return time.time()  # simlint: ignore[det-wall-clock] -- journal timestamps are diagnostics, never results


def perf_clock() -> float:
    """Monotonic wall clock for span durations (same isolation)."""
    return time.perf_counter()  # simlint: ignore[det-wall-clock] -- span timing is diagnostics, never results


def worker_id() -> int:
    """The emitting process id, recorded on every journal event.

    Diagnostic only: it answers "which worker ran this" in a trace but
    must never reach a cache key, a seed, or a measurement (that is what
    ``det-process-identity`` polices everywhere else).
    """
    return os.getpid()  # simlint: ignore[det-process-identity] -- journal diagnostics, never in results


def _submission_order(position: int, record: Dict[str, Any]):
    # Order by work-item index when present so the merged journal reads
    # in submission order whatever the worker interleaving was; events
    # of one item keep their within-file order (the per-file position
    # tie-break — each item runs entirely inside one worker).
    item = record.get("item")
    return (0 if isinstance(item, int) else 1, item or 0, position)


#: the journal as a record stream. It is never canonicalised: the
#: coordinator's own events interleave with the merged batches in the
#: order things happened, which is what a journal is for.
JOURNAL = StreamSpec(
    kind="journal",
    filename=JOURNAL_FILENAME,
    worker_glob=WORKER_GLOB,
    required=("event",),
    sort_key=_submission_order,
    canonical=False,
)


class JournalWriter(StreamWriter):
    """The journal's writer: stamps each event with clock and worker."""

    spec = JOURNAL

    def __init__(self, path: Union[str, Path], worker: Optional[int] = None):
        super().__init__(path)
        self.worker = worker_id() if worker is None else worker

    def write(self, event: str, **fields: Any) -> None:
        """Append one event."""
        record: Dict[str, Any] = {
            "event": event,
            "t_wall": wall_clock(),
            "worker": self.worker,
        }
        record.update(fields)
        self.write_record(record)


journal_path = JOURNAL.path
read_journal = JOURNAL.read
