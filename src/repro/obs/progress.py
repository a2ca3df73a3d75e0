"""The one fold of a sweep's journal, and the views read from it.

:class:`ProgressTracker` is the only code that turns journal events into
counts. It folds events — one at a time as a live tail delivers them,
or all at once from a finished file — into a
:class:`SweepProgress`: how many items are done (split into fresh runs,
cache hits, and failures), per-scenario counts and wall/sim-time
samples, per-phase span totals, the slowest runs, the engine-heap
fields of ``sim_loop`` spans, the simulator's aggregate events/sec, and
an EWMA-smoothed ETA. Every journal view reads that one model:
``obs watch`` (:func:`format_progress`, or :func:`progress_to_dict`
with ``--json``, over the live tail of :mod:`repro.obs.live`) and
``obs report`` (:mod:`repro.obs.report`).

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
from repro.units import to_msec

#: smoothing factor for the inter-completion EWMA; ~ the last dozen
#: completions dominate, so the ETA adapts when a sweep's scenario mix
#: shifts from cheap to expensive cells
EWMA_ALPHA = 0.15

#: characters in the ``obs watch`` progress bar
BAR_WIDTH = 30


def _number(record: Mapping[str, Any], key: str) -> float:
    """A numeric field of a record, 0.0 when absent or not a number."""
    value = record.get(key)
    return float(value) if isinstance(value, (int, float)) else 0.0


def _tally(event: str) -> Any:
    """A :class:`SweepProgress` property: how many ``event`` records."""
    return property(lambda self: self.event_counts.get(event, 0))


@dataclass
class ScenarioProgress:
    """Per-scenario completion counts within one sweep."""

    name: str
    started: int = 0
    finished: int = 0
    cache_hits: int = 0
    errors: int = 0
    #: wall and simulated seconds of each finished run, in journal order
    walls: List[float] = field(default_factory=list)
    sim_times: List[float] = field(default_factory=list)

    @property
    def done(self) -> int:
        return self.finished + self.cache_hits + self.errors


@dataclass
class PhaseProgress:
    """Span timing for one pipeline phase (sim_loop, ...)."""

    phase: str
    count: int = 0
    total_wall_s: float = 0.0


@dataclass
class SweepProgress:
    """A point-in-time view of a (possibly still running) sweep."""

    #: journal events seen, by ``event`` name; the counts below read it
    event_counts: Dict[str, int] = field(default_factory=dict)
    runs_started = _tally("run_started")
    runs_finished = _tally("run_finished")
    cache_hits = _tally("cache_hit")
    cache_misses = _tally("cache_miss")
    batches_started = _tally("batch_started")
    batches_finished = _tally("batch_finished")
    batches_aborted = _tally("batch_aborted")
    sweeps_started = _tally("sweep_started")
    sweeps_finished = _tally("sweep_finished")
    sweeps_aborted = _tally("sweep_aborted")
    #: expected batch size; 0 until a batch/sweep header has been seen
    items_total: int = 0
    grid_points: int = 0
    repetitions: int = 0
    abort_reason: Optional[str] = None
    #: every ``worker_error`` record, in journal order
    worker_errors: List[Dict[str, Any]] = field(default_factory=list)
    #: the slowest ``run_finished`` records, slowest first (ties keep
    #: journal order)
    slowest: List[Dict[str, Any]] = field(default_factory=list)
    #: ``sim_loop`` spans that carry heap fields, and their extremes
    heap_runs: int = 0
    max_pending_events: int = 0
    total_dead_in_queue: int = 0
    max_dead_in_queue: int = 0
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
    def events(self) -> int:
        """Journal events seen, of every type."""
        return sum(self.event_counts.values())

    @property
    def errors(self) -> int:
        return len(self.worker_errors)

    @property
    def items_done(self) -> int:
        """Items that reached a terminal state (run, hit, or error)."""
        return self.runs_finished + self.cache_hits + self.errors

    @property
    def in_flight(self) -> int:
        """Runs started whose terminal event (finished/error) is missing."""
        return max(0, self.runs_started - self.runs_finished - self.errors)

    @property
    def fraction_done(self) -> float:
        if self.items_total <= 0:
            return 0.0
        return min(1.0, self.items_done / self.items_total)

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
        return self.batches_aborted > 0 or self.sweeps_aborted > 0

    @property
    def batches_open(self) -> int:
        """Started batches whose terminal event never arrived: a journal
        with one is a killed run (OOM, SIGKILL, a pulled plug) or one
        still running, however clean its per-run events look."""
        return max(
            0,
            self.batches_started - self.batches_finished - self.batches_aborted,
        )

    @property
    def complete(self) -> bool:
        """At least one batch started, and every started batch reached
        its terminal event (finished or aborted). The executor writes
        ``batch_started`` first, so a journal with no batch event is a
        sweep that has not begun (or a hand-built fixture)."""
        return self.batches_started > 0 and self.batches_open == 0

    @property
    def healthy(self) -> bool:
        """No worker error, no abort, and no batch left open."""
        return not self.errors and not self.aborted and not self.batches_open


class ProgressTracker:
    """Fold journal events into an evolving :class:`SweepProgress`.

    Feed it events with :meth:`observe` / :meth:`observe_all` (in
    journal order; the live tailer guarantees submission order for the
    coordinator file and near-arrival order for worker partials) and
    take :meth:`snapshot` whenever a fresh view is needed. Events that
    were already merged into the coordinator journal must not be fed
    again — dedup is the tailer's job (:mod:`repro.obs.live`). It keeps
    the ``slowest`` slowest ``run_finished`` records.
    """

    def __init__(self, slowest: int = 5):
        self._slowest = slowest
        self._progress = SweepProgress()
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
                self._ewma += EWMA_ALPHA * (interval - self._ewma)
        self._last_done_t = t_wall

    def _rank(self, record: Mapping[str, Any]) -> None:
        """Keep ``record`` if it is among the slowest runs so far."""
        ranked = self._progress.slowest
        ranked.append(dict(record))
        # Stable: a later run ties below an earlier one of equal wall.
        ranked.sort(key=lambda run: _number(run, "wall_s"), reverse=True)
        del ranked[self._slowest:]

    def _span(self, record: Mapping[str, Any]) -> None:
        p = self._progress
        phase = str(record.get("phase", "?"))
        stats = p.phases.get(phase)
        if stats is None:
            stats = PhaseProgress(phase=phase)
            p.phases[phase] = stats
        wall_s = _number(record, "wall_s")
        stats.count += 1
        stats.total_wall_s += wall_s
        if phase != "sim_loop":
            return
        p.events_executed += int(_number(record, "events_executed"))
        self._loop_wall_s += wall_s
        if "pending_events" in record:
            pending = int(_number(record, "pending_events"))
            dead = int(_number(record, "dead_in_queue"))
            p.heap_runs += 1
            p.max_pending_events = max(p.max_pending_events, pending)
            p.total_dead_in_queue += dead
            p.max_dead_in_queue = max(p.max_dead_in_queue, dead)

    def observe(self, record: Mapping[str, Any]) -> None:
        """Fold one journal event into the progress model."""
        p = self._progress
        event = str(record.get("event", ""))
        p.event_counts[event] = p.event_counts.get(event, 0) + 1
        t_wall = self._mark_time(record)
        if event == "sweep_started":
            p.grid_points += int(record.get("grid_points", 0) or 0)
            p.repetitions = int(record.get("repetitions", 0) or 0)
            if p.batches_started == 0:
                p.items_total += int(record.get("items", 0) or 0)
        elif event in ("sweep_aborted", "batch_aborted"):
            p.abort_reason = str(record.get("reason", "")) or p.abort_reason
        elif event == "batch_started":
            # Batch headers are authoritative for the item total: a
            # sweep header may precede them, and figure pipelines can
            # run several batches without any sweep event at all.
            if p.batches_started == 1 and p.sweeps_started > 0:
                p.items_total = 0
            p.items_total += int(record.get("items", 0) or 0)
        elif event == "run_started":
            self._scenario(record).started += 1
        elif event == "run_finished":
            scenario = self._scenario(record)
            scenario.finished += 1
            scenario.walls.append(_number(record, "wall_s"))
            scenario.sim_times.append(_number(record, "sim_time_s"))
            self._rank(record)
            self._mark_done(t_wall)
        elif event == "cache_hit":
            self._scenario(record).cache_hits += 1
            self._mark_done(t_wall)
        elif event == "worker_error":
            p.worker_errors.append(dict(record))
            self._scenario(record).errors += 1
            self._mark_done(t_wall)
        elif event == "span":
            self._span(record)

    def observe_all(self, records: Iterable[Mapping[str, Any]]) -> None:
        for record in records:
            self.observe(record)

    def snapshot(self) -> SweepProgress:
        """The current progress view (derived fields refreshed)."""
        p = self._progress
        if self._first_t is not None and self._last_t is not None:
            p.elapsed_s = max(0.0, self._last_t - self._first_t)
        walls = [wall for s in p.scenarios.values() for wall in s.walls]
        if walls:
            p.wall_p50_s = percentile(walls, 50.0)
            p.wall_p90_s = percentile(walls, 90.0)
            p.wall_max_s = max(walls)
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


#: the snapshot fields ``obs watch --json`` prints as they are...
_AS_IS = (
    "items_total items_done grid_points repetitions runs_started "
    "runs_finished cache_hits errors in_flight batches_started "
    "batches_finished batches_aborted sweeps_started sweeps_finished "
    "sweeps_aborted complete aborted abort_reason events_executed"
).split()

#: ...and those it rounds, to that many digits
_ROUNDED = {
    "fraction_done": 4, "elapsed_s": 3, "ewma_interval_s": 6,
    "wall_p50_s": 6, "wall_p90_s": 6, "wall_max_s": 6, "events_per_s": 1,
}


def progress_to_dict(progress: SweepProgress) -> Dict[str, Any]:
    """A JSON-ready view of a snapshot (``obs watch --json``)."""
    eta_s = progress.eta_s
    return {
        "version": 1,
        **{name: getattr(progress, name) for name in _AS_IS},
        **{
            name: round(getattr(progress, name), digits)
            for name, digits in _ROUNDED.items()
        },
        "eta_s": None if eta_s is None else round(eta_s, 3),
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


def _format_eta(eta_s: Optional[float]) -> str:
    if eta_s is None:
        return "eta ?"
    if eta_s >= 60:
        return f"eta {int(eta_s // 60)}m{int(eta_s % 60):02d}s"
    return f"eta {eta_s:.1f}s"


def format_progress(progress: SweepProgress) -> str:
    """A compact multi-line text view (the ``obs watch`` screen)."""
    p = progress
    filled = int(round(p.fraction_done * BAR_WIDTH))
    bar = "#" * filled + "-" * (BAR_WIDTH - filled)
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
