"""Journal summarization: what ``greenenvy obs report`` prints.

Reads a sweep's merged JSONL journal and answers the operator
questions: how many runs, how effective was the cache, which scenarios
were slow (wall-time percentiles), which individual runs were slowest,
where did pipeline wall time go (span totals), and did any worker
fail. A journal with ``worker_error`` events makes the CLI exit 1, so
``greenenvy obs report`` can gate CI on a sweep's health.

The counting is :class:`~repro.obs.progress.ProgressTracker`'s, the
same fold ``obs watch`` and the metric exports read; this module only
renders its :class:`~repro.obs.progress.SweepProgress`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.analysis.stats import percentile  # bench/ and tests import it from here
from repro.analysis.tables import format_table
from repro.obs.progress import PhaseProgress, ProgressTracker, SweepProgress


def summarize_journal(
    events: Sequence[Mapping[str, Any]], slowest: int = 5
) -> SweepProgress:
    """Fold a whole journal and snapshot it (keeping ``slowest`` runs)."""
    tracker = ProgressTracker(slowest=slowest)
    tracker.observe_all(events)
    return tracker.snapshot()


def _scenario_rows(
    summary: SweepProgress,
) -> List[Tuple[str, int, float, float, float, float]]:
    """Per scenario with a finished run, by name: runs, wall p50/p90/max
    and mean simulated seconds."""
    return [
        (
            s.name,
            s.finished,
            percentile(s.walls, 50.0),
            percentile(s.walls, 90.0),
            max(s.walls),
            sum(s.sim_times) / len(s.sim_times),
        )
        for _name, s in sorted(summary.scenarios.items())
        if s.finished
    ]


def _phases(summary: SweepProgress) -> List[PhaseProgress]:
    """Phases by total wall time, largest first."""
    return sorted(
        summary.phases.values(), key=lambda p: p.total_wall_s, reverse=True
    )


#: the summary fields ``obs report --format json`` prints as they are
_REPORT_FIELDS = (
    "events runs_finished cache_hits cache_misses cache_hit_ratio healthy "
    "complete aborted batches_started batches_finished batches_aborted"
).split()


def summary_to_dict(summary: SweepProgress) -> Dict[str, Any]:
    """A JSON-ready rendering of the summary (schema version 1)."""
    columns = ("scenario", "runs", "p50_wall_s", "p90_wall_s",
               "max_wall_s", "mean_sim_time_s")
    return {
        "version": 1,
        **{name: getattr(summary, name) for name in _REPORT_FIELDS},
        "abort_reason": summary.abort_reason or "",
        "runs_in_flight": summary.in_flight,
        "per_scenario": [
            dict(zip(columns, row)) for row in _scenario_rows(summary)
        ],
        "phases": [
            {"phase": p.phase, "count": p.count, "total_wall_s": p.total_wall_s}
            for p in _phases(summary)
        ],
        "slowest": summary.slowest,
        "errors": summary.worker_errors,
        "engine_heap": {
            "runs": summary.heap_runs,
            "max_pending_events": summary.max_pending_events,
            "total_dead_in_queue": summary.total_dead_in_queue,
            "max_dead_in_queue": summary.max_dead_in_queue,
        },
    }


def format_report(summary: SweepProgress) -> str:
    """Human-readable report (the ``greenenvy obs report`` output)."""
    lookups = summary.cache_hits + summary.cache_misses
    lines = [
        f"journal: {summary.events} events, {summary.runs_finished} runs "
        f"finished, {summary.errors} worker errors",
        (
            f"cache: {summary.cache_hits}/{lookups} hits "
            f"({100.0 * summary.cache_hit_ratio:.1f}%)"
            if lookups
            else "cache: not used"
        ),
    ]

    def section(title: str, body: str) -> None:
        lines.extend(["", f"== {title} ==", body])

    rows = _scenario_rows(summary)
    if rows:
        section("per-scenario wall time", format_table(
            ["scenario", "runs", "p50 (s)", "p90 (s)", "max (s)", "sim (s)"],
            rows,
            float_fmt="{:.4f}",
        ))
    if summary.phases:
        section("wall time by phase", format_table(
            ["phase", "spans", "total (s)"],
            [(p.phase, p.count, p.total_wall_s) for p in _phases(summary)],
            float_fmt="{:.4f}",
        ))
    if summary.heap_runs:
        section(
            "engine heap",
            f"{summary.heap_runs} sim loops: max pending events "
            f"{summary.max_pending_events}, dead-entry tombstones "
            f"{summary.total_dead_in_queue} total "
            f"(worst run {summary.max_dead_in_queue})",
        )
    if summary.slowest:
        section("slowest runs", format_table(
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
        ))
    if summary.worker_errors:
        section("worker errors", format_table(
            ["scenario", "seed", "worker", "error"],
            [
                (
                    str(e.get("scenario", "?")),
                    int(e.get("seed", -1)),
                    int(e.get("worker", -1)),
                    f"{e.get('error_type', '?')}: {e.get('error', '')}",
                )
                for e in summary.worker_errors
            ],
        ))
        lines += ["", "sweep UNHEALTHY: worker errors recorded"]
    if summary.aborted:
        reason = summary.abort_reason or "no reason recorded"
        lines += [
            "",
            f"sweep ABORTED mid-run ({reason}): "
            f"{summary.batches_aborted} of {summary.batches_started} "
            f"batch(es) cancelled cooperatively",
        ]
    elif summary.batches_open:
        lines += [
            "",
            f"sweep INCOMPLETE: {summary.batches_started} batch(es) "
            f"started, only {summary.batches_finished} finished "
            f"({summary.in_flight} run(s) still in flight) — the "
            f"coordinator was likely killed before batch_finished",
        ]
    return "\n".join(lines)
