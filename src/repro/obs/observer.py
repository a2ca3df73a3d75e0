"""The observer protocol: how the harness reports what it is doing.

:class:`Observer` is the no-op base — and the *default*. Every hook is
an empty method, spans are one shared do-nothing context manager, and
the hot paths gate on :attr:`Observer.enabled` before computing any
event field, so an untraced run enters no instrumentation frame per
simulated event (``tests/obs/test_overhead_frames.py`` counts them).

:class:`JournalObserver` writes events to one JSONL file — the form a
process-pool worker uses, appending to its own ``worker-<pid>.jsonl``.
:class:`TracingObserver` is the coordinator: main journal, a
:class:`~repro.obs.metrics.MetricsRegistry` fed from the event stream,
worker-journal merging, and ``metrics.prom``/``metrics.json`` exports
on close.

Observers are observational only: they receive copies of names and
numbers, never objects the simulation reads back. The import direction
is enforced by the ``obs-no-feedback`` simlint rule.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.errors import ObservabilityError
from repro.obs.journal import JOURNAL_FILENAME, JournalWriter, perf_clock
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import StreamWriter
from repro.obs.telemetry import (
    DEFAULT_TELEMETRY_INTERVAL_S,
    TELEMETRY_FILENAME,
    TelemetryWriter,
)
from repro.sim.probe import NULL_PROBE_SINK, ProbeSink, TimeSeriesProbeSink

if TYPE_CHECKING:
    from repro.obs.profile import ProfileWriter

#: filenames of the metric exports a TracingObserver writes on close
METRICS_PROM_FILENAME = "metrics.prom"
METRICS_JSON_FILENAME = "metrics.json"


class Span:
    """A no-op profiling span; also the base for real ones.

    ``wall_s`` stays 0.0 for the no-op, so callers can gate follow-up
    work (like events/sec gauges) on ``span.wall_s > 0``.
    """

    __slots__ = ()

    wall_s: float = 0.0

    def add(self, **fields: Any) -> None:
        """Attach fields to the span's exit event (no-op here)."""

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


#: one shared instance — entering a null span allocates nothing
_NULL_SPAN = Span()


class Observer:
    """No-op observer: the zero-overhead default for every pipeline hook.

    Layers call ``observer.emit(...)``/``observer.span(...)`` without
    null checks; code that would *compute* event fields first checks
    :attr:`enabled` so disabled tracing skips the work entirely.
    """

    #: hot paths skip field computation when this is False
    enabled: bool = False

    #: where worker processes should write partial journals (None =
    #: tracing off or not directory-backed)
    trace_dir: Optional[Path] = None

    #: whether this observer profiles the sim loop; the executor reads
    #: it to tell pool workers to profile their runs too
    profile_enabled: bool = False

    def emit(self, event: str, **fields: Any) -> None:
        """Record one journal event."""

    def span(self, phase: str, **fields: Any) -> Span:
        """A context manager timing one phase (testbed build, sim loop...)."""
        return _NULL_SPAN

    def set_gauge(self, name: str, value: float, labels: Optional[Mapping[str, str]] = None) -> None:
        """Set a gauge metric (e.g. sim events/second)."""

    def inc(self, name: str, amount: float = 1.0, labels: Optional[Mapping[str, str]] = None) -> None:
        """Increment a counter metric."""

    def probe_sink(self, scenario: str, seed: int) -> ProbeSink:
        """A telemetry sink for one run (the shared no-op by default).

        The harness installs the returned sink as ``sim.probe_sink``
        before a run and hands it back via :meth:`record_telemetry`
        after — so only telemetry-enabled observers pay for series
        collection.
        """
        return NULL_PROBE_SINK

    def record_telemetry(
        self, sink: ProbeSink, scenario: str, seed: int
    ) -> None:
        """Persist a completed run's probe-sink series (no-op here)."""

    def collect_workers(self) -> None:
        """Merge per-worker partial journals (coordinator only)."""

    def close(self) -> None:
        """Flush and release any underlying files/exports."""

    def __enter__(self) -> "Observer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


#: the shared no-op observer used whenever tracing is off
NULL_OBSERVER = Observer()


class TimedSpan(Span):
    """A real span: measures wall time, reports back to its observer."""

    __slots__ = ("observer", "phase", "fields", "wall_s", "_t0")

    def __init__(self, observer: "JournalObserver", phase: str, fields: Dict[str, Any]):
        self.observer = observer
        self.phase = phase
        self.fields = fields
        self.wall_s = 0.0
        self._t0 = 0.0

    def add(self, **fields: Any) -> None:
        self.fields.update(fields)

    def __enter__(self) -> "TimedSpan":
        self._t0 = perf_clock()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.wall_s = perf_clock() - self._t0
        self.observer._span_done(self.phase, self.wall_s, self.fields)


class JournalObserver(Observer):
    """Journal-backed observer: every event becomes one JSONL line.

    Workers use this directly (journal only); the coordinator's
    :class:`TracingObserver` subclass adds metrics and exports.
    """

    enabled = True

    def __init__(
        self,
        path: Union[str, Path],
        worker: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        telemetry_path: Optional[Union[str, Path]] = None,
        telemetry_interval_s: Optional[float] = DEFAULT_TELEMETRY_INTERVAL_S,
        profile_path: Optional[Union[str, Path]] = None,
    ):
        self.journal = JournalWriter(path, worker=worker)
        self.registry = registry
        self.telemetry_interval_s = telemetry_interval_s
        self.telemetry: Optional[TelemetryWriter] = (
            TelemetryWriter(telemetry_path) if telemetry_path is not None else None
        )
        self.profile: Optional[ProfileWriter] = None
        #: what times the sim loop: a plain span, or one under cProfile
        self._loop_span = TimedSpan
        if profile_path is not None:
            # imported here: a run nobody profiles never loads cProfile
            from repro.obs.profile import ProfiledSpan, ProfileWriter

            self.profile = ProfileWriter(profile_path)
            self._loop_span = ProfiledSpan
        self.profile_enabled = self.profile is not None
        #: every open record stream, for the uniform merge/close loops
        self.streams: List[StreamWriter] = [
            stream
            for stream in (self.journal, self.telemetry, self.profile)
            if stream is not None
        ]

    def emit(self, event: str, **fields: Any) -> None:
        self.journal.write(event, **fields)
        if self.registry is not None:
            self._count(event, fields)

    def span(self, phase: str, **fields: Any) -> Span:
        span = self._loop_span if phase == "sim_loop" else TimedSpan
        return span(self, phase, dict(fields))

    def _span_done(self, phase: str, wall_s: float, fields: Dict[str, Any]) -> None:
        self.emit("span", phase=phase, wall_s=wall_s, **fields)
        if self.registry is not None:
            self.registry.histogram(
                "span_wall_seconds",
                labels={"phase": phase},
                help="wall time per pipeline phase",
            ).observe(wall_s)

    def set_gauge(self, name: str, value: float, labels: Optional[Mapping[str, str]] = None) -> None:
        if self.registry is not None:
            self.registry.gauge(name, labels=labels).set(value)

    def inc(self, name: str, amount: float = 1.0, labels: Optional[Mapping[str, str]] = None) -> None:
        if self.registry is not None:
            self.registry.counter(name, labels=labels).inc(amount)

    # -- metrics derived from the event stream ------------------------

    _EVENT_COUNTERS = {
        "run_finished": "runs_total",
        "cache_hit": "cache_hits_total",
        "cache_miss": "cache_misses_total",
        "worker_error": "worker_errors_total",
    }

    def _count(self, event: str, fields: Mapping[str, Any]) -> None:
        assert self.registry is not None
        self.registry.counter(
            "journal_events_total",
            labels={"event": event},
            help="journal events by type",
        ).inc()
        direct = self._EVENT_COUNTERS.get(event)
        if direct is not None:
            self.registry.counter(direct).inc()
        if event == "span" and "wall_s" in fields:
            self.registry.histogram(
                "span_wall_seconds",
                labels={"phase": str(fields.get("phase", ""))},
                help="wall time per pipeline phase",
            )

    # -- telemetry -----------------------------------------------------

    def probe_sink(self, scenario: str, seed: int) -> ProbeSink:
        """A fresh collecting sink per run when telemetry is on."""
        if self.telemetry is None:
            return NULL_PROBE_SINK
        return TimeSeriesProbeSink(min_interval_s=self.telemetry_interval_s)

    def record_telemetry(
        self, sink: ProbeSink, scenario: str, seed: int
    ) -> None:
        if self.telemetry is None or not isinstance(sink, TimeSeriesProbeSink):
            return
        self.telemetry.write_sink(sink, scenario=scenario, seed=seed)

    def record(self, events: Iterable[Mapping[str, Any]]) -> None:
        """Fold already-written events (e.g. merged worker partials)
        into the metrics, without re-journaling them."""
        if self.registry is None:
            return
        for record in events:
            event = str(record.get("event", ""))
            self._count(event, record)
            if event == "span" and "wall_s" in record:
                self.registry.histogram(
                    "span_wall_seconds",
                    labels={"phase": str(record.get("phase", ""))},
                ).observe(float(record["wall_s"]))

    def close(self) -> None:
        for stream in self.streams:
            stream.close()


class TracingObserver(JournalObserver):
    """The coordinator observer backing ``--trace DIR``.

    Owns a trace directory holding the merged ``journal.jsonl``; worker
    processes write ``worker-<pid>.jsonl`` partials next to it (they
    derive the path from :attr:`trace_dir`), and
    :meth:`collect_workers` folds those into the main journal and the
    metrics. :meth:`close` exports ``metrics.prom`` and
    ``metrics.json``.
    """

    def __init__(self, trace_dir: Union[str, Path], profile: bool = False):
        root = Path(trace_dir)
        root.mkdir(parents=True, exist_ok=True)
        profile_path = None
        if profile:
            from repro.obs.profile import PROFILE_FILENAME

            profile_path = root / PROFILE_FILENAME
        super().__init__(
            root / JOURNAL_FILENAME,
            registry=MetricsRegistry(),
            telemetry_path=root / TELEMETRY_FILENAME,
            profile_path=profile_path,
        )
        self.trace_dir = root

    def collect_workers(self) -> None:
        assert self.trace_dir is not None
        for stream in self.streams:
            merged = stream.merge_workers(self.trace_dir)
            if stream is self.journal:
                self.record(merged)

    def write_metrics(self) -> None:
        """Export the registry as Prometheus text + JSON into the dir."""
        assert self.registry is not None and self.trace_dir is not None
        prom = self.trace_dir / METRICS_PROM_FILENAME
        prom.write_text(self.registry.render_prometheus(), encoding="utf-8")
        as_json = self.trace_dir / METRICS_JSON_FILENAME
        as_json.write_text(
            json.dumps(self.registry.to_dict(), indent=2, sort_keys=True),
            encoding="utf-8",
        )

    def close(self) -> None:
        self.write_metrics()
        super().close()
        # Canonical record order makes the closed files independent of
        # jobs= and of run-completion order: serial and pooled traces
        # of the same sweep are byte-identical (profile wall times are
        # the one machine-dependent exception, and say so).
        for stream in self.streams:
            if stream.spec.canonical:
                stream.spec.canonicalize(stream.path)


def resolve_observer(
    observer: Union[None, str, Path, Observer],
) -> Observer:
    """Coerce an observer argument to an :class:`Observer`.

    ``None`` means tracing off (the shared no-op); a string or path is
    a trace directory and builds a :class:`TracingObserver`; an
    observer instance passes through.
    """
    if observer is None:
        return NULL_OBSERVER
    if isinstance(observer, Observer):
        return observer
    if isinstance(observer, (str, Path)):
        return TracingObserver(observer)
    raise ObservabilityError(
        f"observer must be None, a trace directory, or an Observer, "
        f"got {type(observer).__name__}"
    )
