"""Golden of traced ``run_work_items`` batches at ``jobs=1`` and ``jobs=2``.

One batch of four items, one of them a cache hit stored beforehand,
runs traced under an ``on_result`` hook that records every index; in a
second batch the hook raises :class:`~repro.errors.SweepAbortedError`
at the first executed result. For each, this file pins:

* each journal event's ``(event, phase, item, backend, cache_key)``,
  with :data:`~repro.obs.journal.VOLATILE_FIELDS` dropped. Two kinds
  of pooled event are left out because they race: a per-run span
  carries no item index, so its place in the merged journal depends on
  which worker ran which item; and after an abort, which queued items
  a worker still finishes before the pool shuts down is a race, so the
  pooled abort pins only the coordinator's events;
* the ``on_result`` index order (hits are notified before any miss
  runs);
* the :class:`~repro.errors.SweepAbortedError`'s ``partial`` keys,
  ``total`` and message.

How the executor consumes results may change; what it journals and
notifies, in which order, must not: ``tests/golden/executor/batches.txt``
stays unchanged. To regenerate after a deliberate change, run
``PYTHONPATH=src python -m tests.harness.test_batch_golden`` and review
the diff.
"""

import tempfile
from pathlib import Path

from repro.errors import SweepAbortedError
from repro.harness.cache import ResultCache
from repro.harness.executor import WorkItem, run_work_items
from repro.harness.experiment import FlowSpec, Scenario
from repro.obs.journal import VOLATILE_FIELDS, read_journal

GOLDEN = (
    Path(__file__).resolve().parents[1] / "golden" / "executor" / "batches.txt"
)

ITEMS = [
    WorkItem(Scenario("pin", flows=[FlowSpec(200_000)], packages=1), seed=seed)
    for seed in range(4)
]
#: the item stored in the cache before each batch runs
HIT = 2

#: events only the coordinator emits, in an order no worker can race
COORDINATOR_EVENTS = {
    "batch_started",
    "cache_hit",
    "cache_miss",
    "batch_aborted",
    "batch_finished",
}
COORDINATOR_SPANS = {"cache_lookup", "cache_store"}


def _event_line(event):
    stable = {k: v for k, v in event.items() if k not in VOLATILE_FIELDS}
    fields = ("event", "phase", "item", "backend", "cache_key")
    return " ".join(str(stable.get(field, "-")) for field in fields)


def _pinned(event, jobs, abort):
    if jobs == 1:
        return True
    if event["event"] == "span":
        return event.get("phase") in COORDINATOR_SPANS
    return not abort or event["event"] in COORDINATOR_EVENTS


def _batch(root, jobs, abort):
    """Run one traced batch; its pinned lines."""
    cache = ResultCache(root / "cache")
    run_work_items([ITEMS[HIT]], cache=cache)
    seen = []

    def on_result(index, item, measurement):
        seen.append(index)
        if abort and index != HIT:
            raise SweepAbortedError("pinned abort")

    outcome = []
    try:
        results = run_work_items(
            ITEMS, jobs=jobs, cache=cache, observer=root / "trace",
            on_result=on_result,
        )
        outcome.append(f"results {len(results)}")
    except SweepAbortedError as exc:
        outcome.append(f"partial {sorted(exc.partial)}")
        outcome.append(f"total {exc.total}")
        outcome.append(f"message {exc}")
    lines = [f"on_result {seen}"] + outcome
    lines.extend(
        _event_line(event)
        for event in read_journal(root / "trace")
        if _pinned(event, jobs, abort)
    )
    return lines


def render():
    """One ``== jobs=<n> <kind>`` block per batch."""
    lines = []
    for abort in (False, True):
        for jobs in (1, 2):
            lines.append(f"== jobs={jobs} {'abort' if abort else 'complete'}")
            with tempfile.TemporaryDirectory() as tmp:
                lines.extend(_batch(Path(tmp), jobs, abort))
    return "\n".join(lines) + "\n"


def test_traced_batches_match_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(render(), encoding="utf-8")
