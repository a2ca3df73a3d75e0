"""The traced run: spans per phase, self time and exact counts per layer.

Everything here observes ``repro`` from outside. Phase spans come from
an :class:`~repro.obs.observer.Observer` subclass handed in through the
public ``observer=`` parameter; per-layer self time and call counts
come from a ``cProfile`` run keyed by the package a function's file
lives in. Inside ``sim_loop`` there is deliberately no span per event:
the profile's call table already holds the exact number of calls of
every function, which is where the counters without a public attribute
(heap pushes, cancels, segments sent, completion checks ...) are read.

Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import cProfile
import contextlib
import importlib
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

import repro
from repro.obs.observer import Observer, Span as ObserverSpan, TracingObserver

from bench.metrics import LAYERS
from bench.workloads import Scope

#: harness phase names -> span names of the benchmark's span tree
PHASE_NAMES = {
    "testbed_build": "build",
    "fabric_build": "build",
    "measurement": "measure",
    "cache_lookup": "cache_get",
    "cache_store": "cache_put",
}

#: time no layer called for (figure drivers, the benchmark's own glue)
#: is orchestration, which is what the harness layer is
ROOT_LAYER = "harness"


# -- spans ------------------------------------------------------------


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    fields: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span tree; one stack, one thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def open(self, name: str, **fields: Any) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(), fields=fields)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        # an exception may have skipped inner closes: unwind to this span
        while self._stack and self._stack.pop() is not span:
            pass

    @contextlib.contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[Span]:
        span = self.open(name, **fields)
        try:
            yield span
        finally:
            self.close(span)

    def to_json(self) -> List[Dict[str, Any]]:
        return [asdict(span) for span in self.spans]


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Children may overlap or touch; the covered part is the union of
    their intervals, clipped to the parent.
    """
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result


def self_time_by_name(spans: List[Span]) -> Dict[str, float]:
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
    return totals


# -- observers that record the harness's phases as spans --------------


class _RecordedSpan(ObserverSpan):
    """An observer span that also lands in the tracer."""

    __slots__ = ("tracer", "name", "fields", "inner", "span", "wall_s")

    def __init__(self, tracer: Tracer, name: str, fields: Dict[str, Any],
                 inner: ObserverSpan):
        self.tracer = tracer
        self.name = name
        self.fields = fields
        self.inner = inner
        self.wall_s = 0.0

    def add(self, **fields: Any) -> None:
        self.span.fields.update(fields)
        self.inner.add(**fields)

    def __enter__(self) -> "_RecordedSpan":
        self.span = self.tracer.open(self.name, **self.fields)
        self.inner.__enter__()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.inner.__exit__(*exc_info)
        self.tracer.close(self.span)
        self.wall_s = self.span.duration


class _Recording:
    """Mixin: phases become spans, run_started/run_finished an item span."""

    tracer: Tracer
    _item: Optional[Span] = None

    def span(self, phase: str, **fields: Any) -> ObserverSpan:
        inner = super().span(phase, **fields)  # type: ignore[misc]
        return _RecordedSpan(
            self.tracer, PHASE_NAMES.get(phase, phase), dict(fields), inner
        )

    def emit(self, event: str, **fields: Any) -> None:
        if event == "run_started":
            self._item = self.tracer.open(
                "item", scenario=fields.get("scenario"), seed=fields.get("seed")
            )
        super().emit(event, **fields)  # type: ignore[misc]
        if event in ("run_finished", "worker_error") and self._item is not None:
            self.tracer.close(self._item)
            self._item = None


class SpanObserver(_Recording, Observer):
    """Records phases; journals nothing."""

    enabled = True

    def __init__(self, tracer: Tracer):
        self.tracer = tracer


class SpanTracingObserver(_Recording, TracingObserver):
    """``TracingObserver`` as ``cca_mtu_grid`` defines it, plus spans."""

    def __init__(self, tracer: Tracer, trace_dir: Path):
        super().__init__(trace_dir)
        self.tracer = tracer

    def record_telemetry(self, sink: Any, scenario: str, seed: int) -> None:
        with self.tracer.span("telemetry_persist", scenario=scenario, seed=seed):
            super().record_telemetry(sink, scenario=scenario, seed=seed)


class TracingScope(Scope):
    """The traced run's scope: the library's phases become spans too."""

    def __init__(self, tmp_root: Path, tracer: Tracer):
        super().__init__(tmp_root, tracer)
        self.observer = SpanObserver(tracer)

    def tracing_observer(self, trace_dir: Path) -> TracingObserver:
        return SpanTracingObserver(self.tracer, trace_dir)


# -- per-layer profile ------------------------------------------------

_REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

#: counters with no public attribute: exact call counts of these
#: functions, as (file under src/repro, qualified name)
COUNTED_CALLS: Mapping[str, Tuple[str, str]] = {
    "sim.heap_pushes": ("sim/engine.py", "Simulator.schedule_at"),
    "sim.cancels": ("sim/engine.py", "Event.cancel"),
    "net.pkts_forwarded": ("net/switch.py", "Switch.receive"),
    "tcp.segments_sent": ("tcp/sender.py", "TcpSender._send_packet"),
    "tcp.acks_processed": ("tcp/sender.py", "TcpSender._handle_packet"),
    "tcp.rto_fired": ("tcp/sender.py", "TcpSender._on_rto"),
    "energy.samples": ("energy/cpu.py", "CpuPackage.flush"),
    "apps.complete_checks": ("apps/iperf.py", "IperfSession.complete"),
}


def check_counted_calls() -> None:
    """Fail loudly if a counted function was moved or renamed.

    A call count of zero must mean "never called", not "no longer
    exists": a change that moves a counter cannot rest a claim on it.
    """
    for metric, (path, qualname) in COUNTED_CALLS.items():
        module = importlib.import_module(
            "repro." + path[: -len(".py")].replace("/", ".")
        )
        target: Any = module
        for part in qualname.split("."):
            if not hasattr(target, part):
                raise LookupError(
                    f"{metric} counts calls of {qualname} in {path}, "
                    f"which no longer exists"
                )
            target = getattr(target, part)


def _location(code: Any) -> Optional[Tuple[str, str]]:
    """(path under src/repro, qualified name) of a repro function."""
    filename = getattr(code, "co_filename", None)
    if filename is None or not filename.startswith(_REPRO_ROOT + os.sep):
        return None
    relative = os.path.relpath(filename, _REPRO_ROOT).replace(os.sep, "/")
    return relative, getattr(code, "co_qualname", code.co_name)


def _layer(code: Any) -> Optional[str]:
    location = _location(code)
    if location is None:
        return None
    package = location[0].split("/", 1)[0]
    return package if package in LAYERS else None


@dataclass
class LayerProfile:
    """Self seconds and calls per layer, plus every repro function's calls."""

    self_s: Dict[str, float]
    calls: Dict[str, int]
    function_calls: Dict[Tuple[str, str], int]
    #: the profiler's own total: what ``self_s`` must add up to
    total_s: float

    def count(self, metric: str) -> int:
        return self.function_calls.get(COUNTED_CALLS[metric], 0)

    def calls_matching(self, package: str, prefix: str) -> int:
        return sum(
            count
            for (path, qualname), count in self.function_calls.items()
            if path.startswith(package + "/")
            and qualname.rsplit(".", 1)[-1].startswith(prefix)
        )


def attribute(stats: List[Any]) -> LayerProfile:
    """Fold ``cProfile.Profile.getstats()`` into the nine layers.

    A function in one of the nine packages owns its self time. Anything
    else — C builtins (``heapq``, ``all``, ``json``, ``hashlib``, file
    writes), the standard library, the rest of ``repro``, the benchmark
    — is charged to whoever called it, through the profiler's caller
    table, so there is no "stdlib" bucket: each caller gets the self
    time the callee spent on its behalf, and a caller that owns no layer
    passes its share on to its own callers in proportion to the time
    they spent in it. Time nobody in a layer asked for goes to
    ``ROOT_LAYER``.
    """
    incoming: Dict[Any, List[Tuple[Any, Any]]] = {}
    for entry in stats:
        for sub in entry.calls or ():
            incoming.setdefault(sub.code, []).append((entry.code, sub))

    memo: Dict[Any, Dict[str, float]] = {}

    def owners(code: Any, visiting: frozenset = frozenset()) -> Dict[str, float]:
        """The layers a function's time belongs to, as shares."""
        layer = _layer(code)
        if layer is not None:
            return {layer: 1.0}
        if code in memo:
            return memo[code]
        weights: Dict[str, float] = {}
        for caller, sub in incoming.get(code, ()):
            if caller in visiting:  # recursion: the cycle adds nothing
                continue
            for name, share in owners(caller, visiting | {code}).items():
                weights[name] = weights.get(name, 0.0) + sub.totaltime * share
        total = sum(weights.values())
        result = (
            {name: weight / total for name, weight in weights.items()}
            if total > 0
            else {ROOT_LAYER: 1.0}
        )
        if not visiting:
            memo[code] = result
        return result

    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    function_calls: Dict[Tuple[str, str], int] = {}
    total = 0.0
    for entry in stats:
        total += entry.inlinetime
        location = _location(entry.code)
        if location is not None:
            function_calls[location] = (
                function_calls.get(location, 0) + entry.callcount
            )
        layer = _layer(entry.code)
        if layer is not None:
            self_s[layer] += entry.inlinetime
            calls[layer] += entry.callcount
            continue
        charged = 0.0
        for caller, sub in incoming.get(entry.code, ()):
            charged += sub.inlinetime
            for name, share in owners(caller).items():
                self_s[name] += sub.inlinetime * share
        # the rest was called straight from the frame that started the
        # profiler, which has no entry of its own
        self_s[ROOT_LAYER] += entry.inlinetime - charged
    return LayerProfile(self_s, calls, function_calls, total)


class ProfilingScope(Scope):
    """Profiles exactly the timed region: what ``wall_s`` measures."""

    def __init__(self, tmp_root: Path, tracer: Tracer):
        super().__init__(tmp_root, tracer)
        self._profiler = cProfile.Profile()

    @contextlib.contextmanager
    def timed(self) -> Iterator[None]:
        with super().timed():
            self._profiler.enable()
            try:
                yield
            finally:
                self._profiler.disable()

    def profile(self) -> LayerProfile:
        return attribute(self._profiler.getstats())
