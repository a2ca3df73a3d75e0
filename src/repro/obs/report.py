"""Journal summarization: what ``greenenvy obs report`` prints.

Reads a sweep's merged JSONL journal and answers the operator
questions: how many runs, how effective was the cache, which scenarios
were slow (wall-time percentiles), which individual runs were slowest,
where did pipeline wall time go (span totals), and did any worker
fail. A journal with ``worker_error`` events makes the CLI exit 1, so
``greenenvy obs report`` can gate CI on a sweep's health.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence

from repro.analysis.stats import percentile  # bench/ and tests import it from here
from repro.analysis.tables import format_table


@dataclass
class ScenarioStats:
    """Wall-time distribution of one scenario's finished runs."""

    scenario: str
    runs: int
    p50_wall_s: float
    p90_wall_s: float
    max_wall_s: float
    mean_sim_time_s: float


@dataclass
class PhaseStats:
    """Aggregate wall time of one profiled phase across all spans."""

    phase: str
    count: int
    total_wall_s: float


@dataclass
class EngineHeapStats:
    """Event-heap health across all ``sim_loop`` spans in the journal.

    The engine reports its final ``pending_events`` / ``dead_in_queue``
    gauges per run; tombstone buildup here is the first symptom of a
    cancellation-heavy scenario stressing the lazy-deletion heap.
    """

    runs: int = 0
    max_pending_events: int = 0
    total_dead_in_queue: int = 0
    max_dead_in_queue: int = 0


@dataclass
class JournalSummary:
    """Everything the report renders, extracted from one journal."""

    events: int
    runs_finished: int
    cache_hits: int
    cache_misses: int
    per_scenario: List[ScenarioStats] = field(default_factory=list)
    slowest: List[Dict[str, Any]] = field(default_factory=list)
    phases: List[PhaseStats] = field(default_factory=list)
    errors: List[Dict[str, Any]] = field(default_factory=list)
    heap: EngineHeapStats = field(default_factory=EngineHeapStats)
    batches_started: int = 0
    batches_finished: int = 0
    batches_aborted: int = 0
    #: runs started whose terminal event (finished/error) never arrived
    runs_in_flight: int = 0
    abort_reason: str = ""

    @property
    def cache_hit_ratio(self) -> float:
        """Hits over lookups (0.0 when the batch never touched a cache)."""
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return 0.0
        return self.cache_hits / lookups

    @property
    def aborted(self) -> bool:
        """Whether the sweep was cancelled cooperatively mid-run."""
        return self.batches_aborted > 0

    @property
    def complete(self) -> bool:
        """Whether every started batch reached its terminal event.

        A journal whose final ``batch_finished``/``batch_aborted`` is
        missing belongs to a *killed* run (OOM, SIGKILL, a pulled
        plug): the sweep never finished, however clean its per-run
        events look. Journals with no batch events at all (unit-test
        fixtures, hand-built streams) are vacuously complete.
        """
        return (
            self.batches_finished + self.batches_aborted
            >= self.batches_started
        )

    @property
    def healthy(self) -> bool:
        """Whether the sweep ran to completion without worker errors."""
        return not self.errors and self.complete and not self.aborted


def summarize_journal(
    events: Sequence[Mapping[str, Any]], slowest: int = 5
) -> JournalSummary:
    """Aggregate a journal's events into a :class:`JournalSummary`."""
    finished = [e for e in events if e.get("event") == "run_finished"]
    errors = [e for e in events if e.get("event") == "worker_error"]
    hits = sum(1 for e in events if e.get("event") == "cache_hit")
    misses = sum(1 for e in events if e.get("event") == "cache_miss")
    started = sum(1 for e in events if e.get("event") == "run_started")
    batches_started = sum(
        1 for e in events if e.get("event") == "batch_started"
    )
    batches_finished = sum(
        1 for e in events if e.get("event") == "batch_finished"
    )
    aborts = [e for e in events if e.get("event") == "batch_aborted"]
    abort_reason = str(aborts[-1].get("reason", "")) if aborts else ""

    by_scenario: Dict[str, List[Mapping[str, Any]]] = {}
    for record in finished:
        by_scenario.setdefault(str(record.get("scenario", "?")), []).append(record)
    per_scenario = []
    for scenario in sorted(by_scenario):
        walls = [float(e.get("wall_s", 0.0)) for e in by_scenario[scenario]]
        sims = [float(e.get("sim_time_s", 0.0)) for e in by_scenario[scenario]]
        per_scenario.append(
            ScenarioStats(
                scenario=scenario,
                runs=len(walls),
                p50_wall_s=percentile(walls, 50.0),
                p90_wall_s=percentile(walls, 90.0),
                max_wall_s=max(walls),
                mean_sim_time_s=sum(sims) / len(sims),
            )
        )

    spans: Dict[str, PhaseStats] = {}
    heap = EngineHeapStats()
    for record in events:
        if record.get("event") != "span":
            continue
        phase = str(record.get("phase", "?"))
        stats = spans.setdefault(phase, PhaseStats(phase=phase, count=0, total_wall_s=0.0))
        stats.count += 1
        stats.total_wall_s += float(record.get("wall_s", 0.0))
        if phase == "sim_loop" and "pending_events" in record:
            pending = int(record.get("pending_events", 0))
            dead = int(record.get("dead_in_queue", 0))
            heap.runs += 1
            heap.max_pending_events = max(heap.max_pending_events, pending)
            heap.total_dead_in_queue += dead
            heap.max_dead_in_queue = max(heap.max_dead_in_queue, dead)

    ranked = sorted(
        finished, key=lambda e: float(e.get("wall_s", 0.0)), reverse=True
    )
    return JournalSummary(
        events=len(events),
        runs_finished=len(finished),
        cache_hits=hits,
        cache_misses=misses,
        per_scenario=per_scenario,
        slowest=[dict(e) for e in ranked[:slowest]],
        phases=sorted(
            spans.values(), key=lambda s: s.total_wall_s, reverse=True
        ),
        errors=[dict(e) for e in errors],
        heap=heap,
        batches_started=batches_started,
        batches_finished=batches_finished,
        batches_aborted=len(aborts),
        runs_in_flight=max(0, started - len(finished) - len(errors)),
        abort_reason=abort_reason,
    )


def summary_to_dict(summary: JournalSummary) -> Dict[str, Any]:
    """A JSON-ready rendering of the summary (schema version 1)."""
    return {
        "version": 1,
        "events": summary.events,
        "runs_finished": summary.runs_finished,
        "cache_hits": summary.cache_hits,
        "cache_misses": summary.cache_misses,
        "cache_hit_ratio": summary.cache_hit_ratio,
        "healthy": summary.healthy,
        "complete": summary.complete,
        "aborted": summary.aborted,
        "abort_reason": summary.abort_reason,
        "batches_started": summary.batches_started,
        "batches_finished": summary.batches_finished,
        "batches_aborted": summary.batches_aborted,
        "runs_in_flight": summary.runs_in_flight,
        "per_scenario": [
            {
                "scenario": s.scenario,
                "runs": s.runs,
                "p50_wall_s": s.p50_wall_s,
                "p90_wall_s": s.p90_wall_s,
                "max_wall_s": s.max_wall_s,
                "mean_sim_time_s": s.mean_sim_time_s,
            }
            for s in summary.per_scenario
        ],
        "phases": [
            {"phase": p.phase, "count": p.count, "total_wall_s": p.total_wall_s}
            for p in summary.phases
        ],
        "slowest": summary.slowest,
        "errors": summary.errors,
        "engine_heap": {
            "runs": summary.heap.runs,
            "max_pending_events": summary.heap.max_pending_events,
            "total_dead_in_queue": summary.heap.total_dead_in_queue,
            "max_dead_in_queue": summary.heap.max_dead_in_queue,
        },
    }


def format_report(summary: JournalSummary) -> str:
    """Human-readable report (the ``greenenvy obs report`` output)."""
    lines: List[str] = []
    lines.append(
        f"journal: {summary.events} events, {summary.runs_finished} runs "
        f"finished, {len(summary.errors)} worker errors"
    )
    lookups = summary.cache_hits + summary.cache_misses
    if lookups:
        lines.append(
            f"cache: {summary.cache_hits}/{lookups} hits "
            f"({100.0 * summary.cache_hit_ratio:.1f}%)"
        )
    else:
        lines.append("cache: not used")

    if summary.per_scenario:
        lines.append("")
        lines.append("== per-scenario wall time ==")
        lines.append(
            format_table(
                ["scenario", "runs", "p50 (s)", "p90 (s)", "max (s)", "sim (s)"],
                [
                    (
                        s.scenario,
                        s.runs,
                        s.p50_wall_s,
                        s.p90_wall_s,
                        s.max_wall_s,
                        s.mean_sim_time_s,
                    )
                    for s in summary.per_scenario
                ],
                float_fmt="{:.4f}",
            )
        )

    if summary.phases:
        lines.append("")
        lines.append("== wall time by phase ==")
        lines.append(
            format_table(
                ["phase", "spans", "total (s)"],
                [(p.phase, p.count, p.total_wall_s) for p in summary.phases],
                float_fmt="{:.4f}",
            )
        )

    if summary.heap.runs:
        lines.append("")
        lines.append("== engine heap ==")
        lines.append(
            f"{summary.heap.runs} sim loops: max pending events "
            f"{summary.heap.max_pending_events}, dead-entry tombstones "
            f"{summary.heap.total_dead_in_queue} total "
            f"(worst run {summary.heap.max_dead_in_queue})"
        )

    if summary.slowest:
        lines.append("")
        lines.append("== slowest runs ==")
        lines.append(
            format_table(
                ["scenario", "seed", "wall (s)", "sim (s)", "energy (J)"],
                [
                    (
                        str(e.get("scenario", "?")),
                        int(e.get("seed", -1)),
                        float(e.get("wall_s", 0.0)),
                        float(e.get("sim_time_s", 0.0)),
                        float(e.get("energy_j", 0.0)),
                    )
                    for e in summary.slowest
                ],
                float_fmt="{:.4f}",
            )
        )

    if summary.errors:
        lines.append("")
        lines.append("== worker errors ==")
        lines.append(
            format_table(
                ["scenario", "seed", "worker", "error"],
                [
                    (
                        str(e.get("scenario", "?")),
                        int(e.get("seed", -1)),
                        int(e.get("worker", -1)),
                        f"{e.get('error_type', '?')}: {e.get('error', '')}",
                    )
                    for e in summary.errors
                ],
            )
        )
        lines.append("")
        lines.append("sweep UNHEALTHY: worker errors recorded")
    if summary.aborted:
        lines.append("")
        reason = summary.abort_reason or "no reason recorded"
        lines.append(
            f"sweep ABORTED mid-run ({reason}): "
            f"{summary.batches_aborted} of {summary.batches_started} "
            f"batch(es) cancelled cooperatively"
        )
    elif not summary.complete:
        lines.append("")
        lines.append(
            f"sweep INCOMPLETE: {summary.batches_started} batch(es) "
            f"started, only {summary.batches_finished} finished "
            f"({summary.runs_in_flight} run(s) still in flight) — the "
            f"coordinator was likely killed before batch_finished"
        )
    return "\n".join(lines)
