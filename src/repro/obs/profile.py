"""Hot-path profiling: the obs-side half of :mod:`repro.sim.profile`.

The sim layer only ever calls the write-only
:class:`~repro.sim.profile.HotPathProfiler` hooks; this module supplies
the recording implementation and everything downstream of it:

* :class:`ProfileCollector` — accumulates per-key aggregate counts and
  per-stack-path call/self-wall-time totals. Wall-clock reads happen
  here (the journal's blessed ``perf_clock``), and only aggregate
  deltas are kept — never per-event timestamps, and nothing the
  simulation can read back (``obs-no-feedback`` bans the
  reverse import).
* ``profile.jsonl`` persistence as a :mod:`repro.obs.stream`: one
  record per (scenario, seed), per-worker partials merged by the
  coordinator, canonical (scenario, seed) order so files from jobs=1
  and jobs=N runs list the same runs in the same order.
* Exporters: folded-stack flamegraph lines, a callgrind file, and a
  Chrome ``traceEvents`` JSON — all rendered from the aggregates, so
  call counts in every format are deterministic (wall times are
  machine-dependent by nature and say so in the record).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ObservabilityError
from repro.obs.journal import perf_clock
from repro.obs.stream import StreamSpec, StreamWriter
from repro.sim.profile import HotPathProfiler
from repro.units import MILLION

#: filename of the merged profile file inside a trace dir
PROFILE_FILENAME = "profile.jsonl"

#: glob pattern of per-worker profile partials awaiting merge
PROFILE_WORKER_GLOB = "profile-worker-*.jsonl"

#: filenames ``greenenvy obs profile`` exports into the trace dir
FOLDED_FILENAME = "profile.folded"
CALLGRIND_FILENAME = "callgrind.out.greenenvy"
CHROME_TRACE_FILENAME = "profile.trace.json"

#: separator between stack-path components (the folded-stack convention)
STACK_SEP = ";"


def _run_order(_position: int, record: Dict[str, Any]):
    return (str(record.get("scenario", "")), record.get("seed", 0))


#: profiles as a record stream; canonical like telemetry (wall times
#: are the one machine-dependent part of a record, and say so)
PROFILE = StreamSpec(
    kind="profile",
    filename=PROFILE_FILENAME,
    worker_glob=PROFILE_WORKER_GLOB,
    required=("scenario", "seed", "counts", "stack_calls", "stack_wall_s"),
    sort_key=_run_order,
    canonical=True,
)


class ProfileCollector(HotPathProfiler):
    """Accumulates hot-path aggregates for one run.

    ``enter``/``exit`` maintain a component stack; elapsed wall time is
    attributed as *self* time to whichever stack path was on top, so
    the ``stack_wall_s`` mapping is already in folded-stack form
    (``"sim.dispatch.X;net.queue.enqueue" -> seconds``). ``count``
    feeds plain tallies (per-event-type dispatch counts). Everything
    deterministic — counts and call totals — is a pure function of the
    run; only the wall-time values vary across machines.
    """

    enabled = True

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.stack_calls: Dict[str, int] = {}
        self.stack_wall_s: Dict[str, float] = {}
        self._paths: List[str] = []
        self._last = perf_clock()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def enter(self, component: str) -> None:
        now = perf_clock()
        paths = self._paths
        if paths:
            parent = paths[-1]
            self.stack_wall_s[parent] += now - self._last
            path = parent + STACK_SEP + component
        else:
            path = component
        paths.append(path)
        self.stack_calls[path] = self.stack_calls.get(path, 0) + 1
        if path not in self.stack_wall_s:
            self.stack_wall_s[path] = 0.0
        self._last = now

    def exit(self, component: str) -> None:
        now = perf_clock()
        if not self._paths:
            raise ObservabilityError(
                f"profiler exit({component!r}) with empty component stack"
            )
        path = self._paths.pop()
        if path.rsplit(STACK_SEP, 1)[-1] != component:
            raise ObservabilityError(
                f"profiler exit({component!r}) does not match open "
                f"component {path!r}"
            )
        self.stack_wall_s[path] += now - self._last
        self._last = now


def profile_record(
    collector: ProfileCollector, scenario: str, seed: int
) -> Dict[str, Any]:
    """Serialize one run's collected aggregates to a record dict."""
    return {
        "scenario": scenario,
        "seed": seed,
        "counts": dict(sorted(collector.counts.items())),
        "stack_calls": dict(sorted(collector.stack_calls.items())),
        "stack_wall_s": {
            path: round(wall, 9)
            for path, wall in sorted(collector.stack_wall_s.items())
        },
    }


class ProfileWriter(StreamWriter):
    """The profile stream's writer: one record per profiled run."""

    spec = PROFILE


profile_path = PROFILE.path
read_profile = PROFILE.read
canonicalize_profile = PROFILE.canonicalize
merge_worker_profiles = PROFILE.merge_workers


# -- aggregation -------------------------------------------------------


@dataclass
class ProfileAggregate:
    """Sum of many runs' profile records (what the exporters render).

    ``counts`` and ``stack_calls`` are exact integer sums — identical
    whatever jobs= produced the records; ``stack_wall_s`` sums the
    machine-dependent self times.
    """

    counts: Dict[str, int] = field(default_factory=dict)
    stack_calls: Dict[str, int] = field(default_factory=dict)
    stack_wall_s: Dict[str, float] = field(default_factory=dict)
    runs: int = 0

    def fold(self, record: Dict[str, Any]) -> None:
        """Add one profile record into the aggregate."""
        for key, n in record["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + int(n)
        for path, n in record["stack_calls"].items():
            self.stack_calls[path] = self.stack_calls.get(path, 0) + int(n)
        for path, wall in record["stack_wall_s"].items():
            self.stack_wall_s[path] = self.stack_wall_s.get(path, 0.0) + float(
                wall
            )
        self.runs += 1

    @property
    def total_wall_s(self) -> float:
        """Total profiled self time across every stack path."""
        return sum(self.stack_wall_s.values())


def aggregate_profiles(records: Iterable[Dict[str, Any]]) -> ProfileAggregate:
    """Fold profile records (e.g. a whole sweep's) into one aggregate."""
    aggregate = ProfileAggregate()
    for record in records:
        aggregate.fold(record)
    return aggregate


def _inclusive_us(aggregate: ProfileAggregate) -> Dict[str, int]:
    """Per-path inclusive microseconds: self plus every descendant."""
    inclusive: Dict[str, int] = {
        path: int(round(wall * MILLION))
        for path, wall in aggregate.stack_wall_s.items()
    }
    # Longest paths first, so each child has already absorbed its own
    # subtree by the time it is added to its parent.
    for path in sorted(
        inclusive, key=lambda p: p.count(STACK_SEP), reverse=True
    ):
        if STACK_SEP in path:
            parent = path.rsplit(STACK_SEP, 1)[0]
            inclusive[parent] = inclusive.get(parent, 0) + inclusive[path]
    return inclusive


# -- exporters ---------------------------------------------------------


def render_folded(aggregate: ProfileAggregate) -> str:
    """The flamegraph.pl input format: ``comp1;comp2 <self-µs>``.

    Zero-weight paths keep a line (weight 0) so the stack *shape* is
    identical across machines even when a fast box rounds a path's
    self time down to nothing.
    """
    lines = [
        f"{path} {int(round(wall * MILLION))}"
        for path, wall in sorted(aggregate.stack_wall_s.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def render_callgrind(aggregate: ProfileAggregate) -> str:
    """A callgrind-format profile: per-function self cost + call edges.

    Two event types per cost line: self wall microseconds and call
    count. Call edges carry the callee's inclusive cost, which is what
    kcachegrind renders as the call graph.
    """
    self_us: Dict[str, int] = {}
    fn_calls: Dict[str, int] = {}
    edges: Dict[Tuple[str, str], Dict[str, int]] = {}
    inclusive = _inclusive_us(aggregate)
    for path, wall in aggregate.stack_wall_s.items():
        parts = path.split(STACK_SEP)
        leaf = parts[-1]
        self_us[leaf] = self_us.get(leaf, 0) + int(round(wall * MILLION))
        calls = aggregate.stack_calls.get(path, 0)
        fn_calls[leaf] = fn_calls.get(leaf, 0) + calls
        if len(parts) > 1:
            edge = (parts[-2], leaf)
            stats = edges.setdefault(edge, {"calls": 0, "inclusive_us": 0})
            stats["calls"] += calls
            stats["inclusive_us"] += inclusive[path]
    out = [
        "# callgrind format",
        "version: 1",
        "creator: greenenvy obs profile",
        "events: WallUs Calls",
        "",
    ]
    for fn in sorted(self_us):
        out.append(f"fn={fn}")
        out.append(f"0 {self_us[fn]} {fn_calls[fn]}")
        for (caller, callee), stats in sorted(edges.items()):
            if caller != fn:
                continue
            out.append(f"cfn={callee}")
            out.append(f"calls={stats['calls']} 0")
            out.append(f"0 {stats['inclusive_us']} {stats['calls']}")
        out.append("")
    return "\n".join(out)


def render_chrome_trace(aggregate: ProfileAggregate) -> Dict[str, Any]:
    """A Chrome ``traceEvents`` object laid out from the aggregates.

    The profiler keeps only aggregate deltas, so this is a *synthetic*
    timeline: every stack path becomes one complete ("X") slice whose
    duration is its inclusive time, children nested inside their
    parent in component-name order. Proportions and nesting match the
    real run; absolute positions do not claim to.
    """
    inclusive = _inclusive_us(aggregate)
    children: Dict[str, List[str]] = {}
    roots: List[str] = []
    for path in inclusive:
        if STACK_SEP in path:
            parent = path.rsplit(STACK_SEP, 1)[0]
            children.setdefault(parent, []).append(path)
        else:
            roots.append(path)
    events: List[Dict[str, Any]] = []

    def _layout(path: str, start_us: int) -> None:
        events.append(
            {
                "name": path.rsplit(STACK_SEP, 1)[-1],
                "cat": "sim",
                "ph": "X",
                "ts": start_us,
                "dur": inclusive[path],
                "pid": 1,
                "tid": 1,
                "args": {"calls": aggregate.stack_calls.get(path, 0)},
            }
        )
        cursor = start_us
        for child in sorted(children.get(path, [])):
            _layout(child, cursor)
            cursor += inclusive[child]

    cursor = 0
    for root in sorted(roots):
        _layout(root, cursor)
        cursor += inclusive[root]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"runs": aggregate.runs, "source": "greenenvy"},
    }


def export_profile(
    trace_dir: Union[str, Path],
    records: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Path]:
    """Render every export format from a trace dir's profile records.

    Writes ``profile.folded``, ``callgrind.out.greenenvy`` and
    ``profile.trace.json`` next to ``profile.jsonl`` and returns the
    paths keyed by format name.
    """
    root = Path(trace_dir)
    if records is None:
        records = read_profile(root)
    aggregate = aggregate_profiles(records)
    folded = root / FOLDED_FILENAME
    folded.write_text(render_folded(aggregate), encoding="utf-8")
    callgrind = root / CALLGRIND_FILENAME
    callgrind.write_text(render_callgrind(aggregate), encoding="utf-8")
    chrome = root / CHROME_TRACE_FILENAME
    chrome.write_text(
        json.dumps(render_chrome_trace(aggregate), indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    return {"folded": folded, "callgrind": callgrind, "chrome": chrome}


def summarize_profile(records: List[Dict[str, Any]], top: int = 10) -> str:
    """A text summary for ``obs report``: hottest components by self time."""
    aggregate = aggregate_profiles(records)
    if not aggregate.stack_wall_s:
        return "profile: no records"
    total = aggregate.total_wall_s or 1.0
    # Fold stack paths down to their leaf component for the summary.
    by_leaf: Dict[str, Tuple[float, int]] = {}
    for path, wall in aggregate.stack_wall_s.items():
        leaf = path.rsplit(STACK_SEP, 1)[-1]
        prev_wall, prev_calls = by_leaf.get(leaf, (0.0, 0))
        by_leaf[leaf] = (
            prev_wall + wall,
            prev_calls + aggregate.stack_calls.get(path, 0),
        )
    ranked = sorted(by_leaf.items(), key=lambda kv: (-kv[1][0], kv[0]))[:top]
    lines = [
        f"profile: {aggregate.runs} runs, "
        f"{aggregate.total_wall_s:.3f}s profiled self time"
    ]
    for leaf, (wall, calls) in ranked:
        lines.append(
            f"  {leaf:<44} {wall:>9.4f}s  {100.0 * wall / total:>5.1f}%  "
            f"{calls:>10} calls"
        )
    return "\n".join(lines)
