"""Incremental sweep progress built from a streaming journal.

:class:`ProgressTracker` folds journal events — arriving one at a time
from a live tail or all at once from a finished file — into a
:class:`SweepProgress` snapshot: how many items are done (split into
fresh runs, cache hits, and failures), per-scenario counts, wall-time
percentiles of the runs seen so far, the simulator's aggregate
events/sec, and an EWMA-smoothed ETA.

The tracker is a pure consumer: it never writes to the trace directory
and never feeds anything back into the run (the ``obs-no-feedback``
rule). It reads only the journal's diagnostic wall-clock fields
(``t_wall``, ``wall_s``), which are explicitly outside the determinism
contract — progress display is exactly what those fields exist for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.analysis.stats import percentile
from repro.obs.metrics import MetricsRegistry
from repro.units import to_msec

#: smoothing factor for the inter-completion EWMA; ~ the last dozen
#: completions dominate, so the ETA adapts when a sweep's scenario mix
#: shifts from cheap to expensive cells
EWMA_ALPHA = 0.15

#: events that consume one work item when they land
_TERMINAL_EVENTS = ("run_finished", "cache_hit", "worker_error")


@dataclass
class ScenarioProgress:
    """Per-scenario completion counts within one sweep."""

    name: str
    started: int = 0
    finished: int = 0
    cache_hits: int = 0
    errors: int = 0

    @property
    def done(self) -> int:
        return self.finished + self.cache_hits + self.errors


@dataclass
class PhaseProgress:
    """Aggregate span timing for one pipeline phase (sim_loop, ...)."""

    phase: str
    count: int = 0
    total_wall_s: float = 0.0


@dataclass
class SweepProgress:
    """A point-in-time view of a (possibly still running) sweep."""

    #: expected batch size; 0 until a batch/sweep header has been seen
    items_total: int = 0
    grid_points: int = 0
    repetitions: int = 0
    runs_started: int = 0
    runs_finished: int = 0
    cache_hits: int = 0
    errors: int = 0
    batches_started: int = 0
    batches_finished: int = 0
    batches_aborted: int = 0
    sweeps_started: int = 0
    sweeps_finished: int = 0
    sweeps_aborted: int = 0
    abort_reason: Optional[str] = None
    #: wall seconds between the first and last event seen so far
    elapsed_s: float = 0.0
    #: run wall-time percentiles over the fresh runs seen so far
    wall_p50_s: float = 0.0
    wall_p90_s: float = 0.0
    wall_max_s: float = 0.0
    #: simulator throughput: virtual events over sim-loop wall time
    events_executed: int = 0
    events_per_s: float = 0.0
    #: EWMA of inter-completion wall intervals, and the ETA it implies
    ewma_interval_s: float = 0.0
    eta_s: Optional[float] = None
    scenarios: Dict[str, ScenarioProgress] = field(default_factory=dict)
    phases: Dict[str, PhaseProgress] = field(default_factory=dict)

    @property
    def items_done(self) -> int:
        """Items that reached a terminal state (run, hit, or error)."""
        return self.runs_finished + self.cache_hits + self.errors

    @property
    def in_flight(self) -> int:
        return max(0, self.runs_started - self.runs_finished - self.errors)

    @property
    def fraction_done(self) -> float:
        if self.items_total <= 0:
            return 0.0
        return min(1.0, self.items_done / self.items_total)

    @property
    def aborted(self) -> bool:
        return self.batches_aborted > 0 or self.sweeps_aborted > 0

    @property
    def complete(self) -> bool:
        """Every started batch reached its terminal event (or aborted)."""
        if self.batches_started == 0:
            return False
        return (
            self.batches_finished + self.batches_aborted
            >= self.batches_started
        )


class ProgressTracker:
    """Fold journal events into an evolving :class:`SweepProgress`.

    Feed it events with :meth:`observe` / :meth:`observe_all` (in
    journal order; the live tailer guarantees submission order for the
    coordinator file and near-arrival order for worker partials) and
    take :meth:`snapshot` whenever a fresh view is needed. Events that
    were already merged into the coordinator journal must not be fed
    again — dedup is the tailer's job (:mod:`repro.obs.live`).
    """

    def __init__(self, ewma_alpha: float = EWMA_ALPHA):
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self._alpha = ewma_alpha
        self._progress = SweepProgress()
        self._wall_samples: List[float] = []
        self._loop_wall_s = 0.0
        self._first_t: Optional[float] = None
        self._last_t: Optional[float] = None
        self._last_done_t: Optional[float] = None
        self._ewma: Optional[float] = None

    def _scenario(self, record: Mapping[str, Any]) -> ScenarioProgress:
        name = str(record.get("scenario", "?"))
        progress = self._progress.scenarios.get(name)
        if progress is None:
            progress = ScenarioProgress(name=name)
            self._progress.scenarios[name] = progress
        return progress

    def _mark_time(self, record: Mapping[str, Any]) -> Optional[float]:
        t_wall = record.get("t_wall")
        if not isinstance(t_wall, (int, float)):
            return None
        if self._first_t is None:
            self._first_t = float(t_wall)
        self._last_t = max(self._last_t or float(t_wall), float(t_wall))
        return float(t_wall)

    def _mark_done(self, t_wall: Optional[float]) -> None:
        if t_wall is None:
            return
        if self._last_done_t is not None:
            interval = max(0.0, t_wall - self._last_done_t)
            if self._ewma is None:
                self._ewma = interval
            else:
                self._ewma += self._alpha * (interval - self._ewma)
        self._last_done_t = t_wall

    def observe(self, record: Mapping[str, Any]) -> None:
        """Fold one journal event into the progress model."""
        p = self._progress
        event = str(record.get("event", ""))
        t_wall = self._mark_time(record)
        if event == "sweep_started":
            p.sweeps_started += 1
            p.grid_points += int(record.get("grid_points", 0) or 0)
            p.repetitions = int(record.get("repetitions", 0) or 0)
            if p.batches_started == 0:
                p.items_total += int(record.get("items", 0) or 0)
        elif event == "sweep_finished":
            p.sweeps_finished += 1
        elif event == "sweep_aborted":
            p.sweeps_aborted += 1
            p.abort_reason = str(record.get("reason", "")) or p.abort_reason
        elif event == "batch_started":
            # Batch headers are authoritative for the item total: a
            # sweep header may precede them, and figure pipelines can
            # run several batches without any sweep event at all.
            if p.batches_started == 0 and p.sweeps_started > 0:
                p.items_total = 0
            p.batches_started += 1
            p.items_total += int(record.get("items", 0) or 0)
        elif event == "batch_finished":
            p.batches_finished += 1
        elif event == "batch_aborted":
            p.batches_aborted += 1
            p.abort_reason = str(record.get("reason", "")) or p.abort_reason
        elif event == "run_started":
            p.runs_started += 1
            self._scenario(record).started += 1
        elif event == "run_finished":
            p.runs_finished += 1
            self._scenario(record).finished += 1
            wall_s = record.get("wall_s")
            if isinstance(wall_s, (int, float)):
                self._wall_samples.append(float(wall_s))
            self._mark_done(t_wall)
        elif event == "cache_hit":
            p.cache_hits += 1
            self._scenario(record).cache_hits += 1
            self._mark_done(t_wall)
        elif event == "worker_error":
            p.errors += 1
            self._scenario(record).errors += 1
            self._mark_done(t_wall)
        elif event == "span":
            phase = str(record.get("phase", "?"))
            stats = p.phases.get(phase)
            if stats is None:
                stats = PhaseProgress(phase=phase)
                p.phases[phase] = stats
            stats.count += 1
            wall_s = record.get("wall_s")
            if isinstance(wall_s, (int, float)):
                stats.total_wall_s += float(wall_s)
            if phase == "sim_loop":
                executed = record.get("events_executed")
                if isinstance(executed, (int, float)):
                    p.events_executed += int(executed)
                if isinstance(wall_s, (int, float)):
                    self._loop_wall_s += float(wall_s)

    def observe_all(self, records: Iterable[Mapping[str, Any]]) -> None:
        for record in records:
            self.observe(record)

    def snapshot(self) -> SweepProgress:
        """The current progress view (derived fields refreshed)."""
        p = self._progress
        if self._first_t is not None and self._last_t is not None:
            p.elapsed_s = max(0.0, self._last_t - self._first_t)
        if self._wall_samples:
            p.wall_p50_s = percentile(self._wall_samples, 50.0)
            p.wall_p90_s = percentile(self._wall_samples, 90.0)
            p.wall_max_s = max(self._wall_samples)
        p.events_per_s = (
            p.events_executed / self._loop_wall_s
            if self._loop_wall_s > 0
            else 0.0
        )
        p.ewma_interval_s = self._ewma or 0.0
        remaining = max(0, p.items_total - p.items_done)
        if p.complete or (p.items_total > 0 and remaining == 0):
            p.eta_s = 0.0
        elif self._ewma is not None and p.items_total > 0:
            p.eta_s = remaining * self._ewma
        else:
            p.eta_s = None
        return p


def progress_to_dict(progress: SweepProgress) -> Dict[str, Any]:
    """A JSON-ready view of a snapshot (``obs watch --json``)."""
    return {
        "version": 1,
        "items_total": progress.items_total,
        "items_done": progress.items_done,
        "fraction_done": round(progress.fraction_done, 4),
        "grid_points": progress.grid_points,
        "repetitions": progress.repetitions,
        "runs_started": progress.runs_started,
        "runs_finished": progress.runs_finished,
        "cache_hits": progress.cache_hits,
        "errors": progress.errors,
        "in_flight": progress.in_flight,
        "batches_started": progress.batches_started,
        "batches_finished": progress.batches_finished,
        "batches_aborted": progress.batches_aborted,
        "sweeps_started": progress.sweeps_started,
        "sweeps_finished": progress.sweeps_finished,
        "sweeps_aborted": progress.sweeps_aborted,
        "complete": progress.complete,
        "aborted": progress.aborted,
        "abort_reason": progress.abort_reason,
        "elapsed_s": round(progress.elapsed_s, 3),
        "eta_s": (
            None if progress.eta_s is None else round(progress.eta_s, 3)
        ),
        "ewma_interval_s": round(progress.ewma_interval_s, 6),
        "wall_p50_s": round(progress.wall_p50_s, 6),
        "wall_p90_s": round(progress.wall_p90_s, 6),
        "wall_max_s": round(progress.wall_max_s, 6),
        "events_executed": progress.events_executed,
        "events_per_s": round(progress.events_per_s, 1),
        "scenarios": {
            name: {
                "started": s.started,
                "finished": s.finished,
                "cache_hits": s.cache_hits,
                "errors": s.errors,
            }
            for name, s in sorted(progress.scenarios.items())
        },
        "phases": {
            phase: {
                "count": stats.count,
                "total_wall_s": round(stats.total_wall_s, 6),
            }
            for phase, stats in sorted(progress.phases.items())
        },
    }


def progress_to_registry(progress: SweepProgress) -> MetricsRegistry:
    """Render a snapshot as Prometheus gauges (the ``/metrics`` view)."""
    registry = MetricsRegistry()

    def gauge(name: str, value: float, help: str) -> None:
        registry.gauge(name, help=help).set(value)

    gauge(
        "sweep_items_total", float(progress.items_total),
        "work items expected in the watched sweep",
    )
    gauge(
        "sweep_items_done", float(progress.items_done),
        "work items in a terminal state (run, cache hit, or error)",
    )
    gauge(
        "sweep_runs_finished", float(progress.runs_finished),
        "fresh simulations finished",
    )
    gauge(
        "sweep_cache_hits", float(progress.cache_hits),
        "items served from the result cache",
    )
    gauge(
        "sweep_errors", float(progress.errors),
        "items that failed with a worker error",
    )
    gauge(
        "sweep_in_flight", float(progress.in_flight),
        "runs started but not yet finished",
    )
    gauge(
        "sweep_fraction_done", progress.fraction_done,
        "items_done / items_total",
    )
    gauge(
        "sweep_complete", 1.0 if progress.complete else 0.0,
        "1 once every started batch finished or aborted",
    )
    gauge(
        "sweep_aborted", 1.0 if progress.aborted else 0.0,
        "1 if the sweep was cancelled mid-run",
    )
    gauge(
        "sweep_eta_seconds",
        progress.eta_s if progress.eta_s is not None else -1.0,
        "EWMA-based seconds to completion (-1 = unknown)",
    )
    gauge(
        "sweep_elapsed_seconds", progress.elapsed_s,
        "wall seconds between the first and last journal event seen",
    )
    gauge(
        "sweep_run_wall_p50_seconds", progress.wall_p50_s,
        "median wall seconds per fresh run so far",
    )
    gauge(
        "sweep_run_wall_p90_seconds", progress.wall_p90_s,
        "p90 wall seconds per fresh run so far",
    )
    gauge(
        "sim_events_per_second_aggregate", progress.events_per_s,
        "virtual events over sim-loop wall time, all runs so far",
    )
    return registry


def _format_eta(eta_s: Optional[float]) -> str:
    if eta_s is None:
        return "eta ?"
    if eta_s >= 60:
        return f"eta {int(eta_s // 60)}m{int(eta_s % 60):02d}s"
    return f"eta {eta_s:.1f}s"


def format_progress(progress: SweepProgress, bar_width: int = 30) -> str:
    """A compact multi-line text view (the ``obs watch`` screen)."""
    p = progress
    filled = int(round(p.fraction_done * bar_width))
    bar = "#" * filled + "-" * (bar_width - filled)
    if p.aborted:
        state = f"ABORTED ({p.abort_reason or 'no reason recorded'})"
    elif p.complete:
        state = "complete"
    elif p.batches_started == 0:
        state = "waiting for batch_started"
    else:
        state = "running"
    lines = [
        f"[{bar}] {p.items_done}/{p.items_total or '?'} items "
        f"({100 * p.fraction_done:5.1f}%)  {state}",
        f"  runs {p.runs_finished}  cache hits {p.cache_hits}  "
        f"errors {p.errors}  in flight {p.in_flight}  "
        f"{_format_eta(p.eta_s)}  elapsed {p.elapsed_s:.1f}s",
        f"  run wall p50 {to_msec(p.wall_p50_s):.1f}ms  "
        f"p90 {to_msec(p.wall_p90_s):.1f}ms  "
        f"max {to_msec(p.wall_max_s):.1f}ms  "
        f"sim {p.events_per_s:,.0f} ev/s",
    ]
    busiest = sorted(
        progress.scenarios.values(),
        key=lambda s: (-s.done, s.name),
    )[:8]
    for s in busiest:
        lines.append(
            f"    {s.name:<32} runs {s.finished:>4}  "
            f"hits {s.cache_hits:>4}  errors {s.errors:>2}"
        )
    if len(progress.scenarios) > len(busiest):
        lines.append(
            f"    ... and {len(progress.scenarios) - len(busiest)} more "
            f"scenarios"
        )
    return "\n".join(lines)
