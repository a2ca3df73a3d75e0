"""The observer protocol: how the harness reports what it is doing.

:class:`Observer` is the no-op base — and the *default*. Every hook is
an empty method, spans are one shared do-nothing context manager, and
the hot paths gate on :attr:`Observer.enabled` before computing any
event field, so an untraced run enters no instrumentation frame per
simulated event (``tests/obs/test_overhead_frames.py`` counts them).

:class:`JournalObserver` writes events to one JSONL file — the form a
process-pool worker uses, appending to its own ``worker-<pid>.jsonl``.
:class:`TracingObserver` is the coordinator: it owns a trace directory
whose record streams (``journal.jsonl``, ``telemetry.jsonl``, and
``profile.jsonl`` when profiling) are the whole trace. It merges the
workers' partials into them and puts them in canonical order on close;
every view of a trace (``obs report``, ``obs watch``, ``obs diff``)
reads those files afterwards.

Observers are observational only: they receive copies of names and
numbers, never objects the simulation reads back. The import direction
is enforced by the ``obs-no-feedback`` simlint rule.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.obs.journal import (
    JOURNAL_FILENAME,
    PROFILE_FILENAME,
    PROFILE_WORKER_GLOB,
    WORKER_GLOB,
    JournalWriter,
    perf_clock,
)
from repro.obs.stream import StreamWriter
from repro.obs.telemetry import (
    DEFAULT_TELEMETRY_INTERVAL_S,
    TELEMETRY_FILENAME,
    TELEMETRY_WORKER_GLOB,
    TelemetryWriter,
)
from repro.sim.probe import NULL_PROBE_SINK, ProbeSink, TimeSeriesProbeSink

if TYPE_CHECKING:
    from repro.obs.profile import ProfileWriter

class Span:
    """A no-op profiling span (``wall_s`` stays 0.0); also the base
    for real ones."""

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
        """Flush and release any underlying files."""

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
        self.observer.emit(
            "span", phase=self.phase, wall_s=self.wall_s, **self.fields
        )


class JournalObserver(Observer):
    """Journal-backed observer: every event becomes one JSONL line.

    Workers use this directly; the coordinator's
    :class:`TracingObserver` subclass adds the trace directory, merging
    and canonical order.
    """

    enabled = True

    def __init__(
        self,
        path: Union[str, Path],
        worker: Optional[int] = None,
        telemetry_path: Optional[Union[str, Path]] = None,
        profile_path: Optional[Union[str, Path]] = None,
    ):
        self.journal = JournalWriter(path, worker=worker)
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

    def span(self, phase: str, **fields: Any) -> Span:
        span = self._loop_span if phase == "sim_loop" else TimedSpan
        return span(self, phase, dict(fields))

    # -- telemetry -----------------------------------------------------

    def probe_sink(self, scenario: str, seed: int) -> ProbeSink:
        """A fresh collecting sink per run when telemetry is on."""
        if self.telemetry is None:
            return NULL_PROBE_SINK
        return TimeSeriesProbeSink(min_interval_s=DEFAULT_TELEMETRY_INTERVAL_S)

    def record_telemetry(
        self, sink: ProbeSink, scenario: str, seed: int
    ) -> None:
        if self.telemetry is None or not isinstance(sink, TimeSeriesProbeSink):
            return
        self.telemetry.write_sink(sink, scenario=scenario, seed=seed)

    def close(self) -> None:
        for stream in self.streams:
            stream.close()


#: every record file of a trace directory, worker partials included
_RECORD_GLOBS = (
    JOURNAL_FILENAME, WORKER_GLOB,
    TELEMETRY_FILENAME, TELEMETRY_WORKER_GLOB,
    PROFILE_FILENAME, PROFILE_WORKER_GLOB,
)


class TracingObserver(JournalObserver):
    """The coordinator observer backing ``--trace DIR``.

    Owns a trace directory holding the merged ``journal.jsonl``; worker
    processes write ``worker-<pid>.jsonl`` partials next to it (they
    derive the path from :attr:`trace_dir`), and
    :meth:`collect_workers` folds those into the main streams. A closed
    directory holds the record streams and nothing else.

    Whoever builds one owns it and closes it; library code is handed an
    observer and never builds one. Building one claims the directory:
    the record files an earlier observer left there (its streams, and
    partials of workers that never got merged) are deleted first, so a
    directory only ever answers for the latest run. The abort flag is
    not a record and stays.
    """

    def __init__(self, trace_dir: Union[str, Path], profile: bool = False):
        root = Path(trace_dir)
        root.mkdir(parents=True, exist_ok=True)
        for pattern in _RECORD_GLOBS:
            for stale in root.glob(pattern):
                stale.unlink()
        super().__init__(
            root / JOURNAL_FILENAME,
            telemetry_path=root / TELEMETRY_FILENAME,
            profile_path=root / PROFILE_FILENAME if profile else None,
        )
        self.trace_dir = root

    def collect_workers(self) -> None:
        assert self.trace_dir is not None
        for stream in self.streams:
            stream.merge_workers(self.trace_dir)

    def close(self) -> None:
        super().close()
        # Canonical record order makes the closed files independent of
        # jobs= and of run-completion order: serial and pooled traces
        # of the same sweep are byte-identical (profile wall times are
        # the one machine-dependent exception, and say so).
        for stream in self.streams:
            if stream.spec.canonical:
                stream.spec.canonicalize(stream.path)
