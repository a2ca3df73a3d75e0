"""The sim loop under ``cProfile``: one ``profile.jsonl`` record per run.

Profiling stays outside the data path. When a trace is profiled
(``greenenvy obs profile``, ``TracingObserver(profile=True)``), the
observer's ``sim_loop`` span is a :class:`ProfiledSpan`: it runs a
:class:`cProfile.Profile` from ``__enter__`` to ``__exit__`` and, on a
clean exit, folds the profiler's table into one record for that run.
Nothing in the simulator knows, so no hot function carries a branch for
it and a profiled run executes exactly the events an unprofiled one does.

A record keeps ``repro`` functions only, keyed
``path-under-src/repro:qualname`` (``tcp/sender.py:TcpSender._handle_packet``),
so neither import machinery nor the standard library gets in:

* ``calls`` — calls per function, and ``edges`` — calls per
  caller → callee pair of two such functions. Exact integers, a pure
  function of the run: identical at every ``jobs=``.
* ``self_s`` / ``total_s`` — seconds in the function itself / with its
  callees, as the profiler measured them (its own overhead included).
  Machine-dependent by nature. The profiler does not track C builtins,
  so a ``heappush`` or ``random()`` is its caller's self time; a call
  into a standard-library Python function counts in its caller's
  ``total_s`` only.

Records persist as a :mod:`repro.obs.stream` (per-worker partials merged
by the coordinator, canonical (scenario, seed) order), and the exporters
render the sum of any number of them: callgrind from the function table
and its edges; folded stacks and a Chrome trace from a two-level tree,
layer (the package under ``src/repro``) → function. The profiler keeps
one level of callers, so neither view is a full stack.
"""

from __future__ import annotations

import cProfile
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

import repro
from repro.obs.observer import TimedSpan
from repro.obs.stream import StreamSpec, StreamWriter
from repro.units import MILLION

#: filename of the merged profile file inside a trace dir
PROFILE_FILENAME = "profile.jsonl"

#: glob pattern of per-worker profile partials awaiting merge
PROFILE_WORKER_GLOB = "profile-worker-*.jsonl"

#: filenames ``greenenvy obs profile`` exports into the trace dir
FOLDED_FILENAME = "profile.folded"
CALLGRIND_FILENAME = "callgrind.out.greenenvy"
CHROME_TRACE_FILENAME = "profile.trace.json"

#: every profiled function's file starts with this
_REPRO_PREFIX = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _run_order(_position: int, record: Dict[str, Any]):
    return (str(record.get("scenario", "")), record.get("seed", 0))


#: profiles as a record stream; canonical like telemetry (wall times
#: are the one machine-dependent part of a record, and say so)
PROFILE = StreamSpec(
    kind="profile",
    filename=PROFILE_FILENAME,
    worker_glob=PROFILE_WORKER_GLOB,
    required=("scenario", "seed", "calls", "edges", "self_s", "total_s"),
    sort_key=_run_order,
    canonical=True,
)


def function_key(code: Any) -> Optional[str]:
    """``path-under-src/repro:qualname`` of a ``repro`` function's code,
    None for any other."""
    filename = code.co_filename
    if not filename.startswith(_REPRO_PREFIX):
        return None
    path = filename[len(_REPRO_PREFIX):].replace(os.sep, "/")
    return f"{path}:{getattr(code, 'co_qualname', code.co_name)}"


def layer_of(key: str) -> str:
    """The package under ``src/repro`` a function key lives in
    (``tcp/sender.py:…`` → ``tcp``; a top-level ``units.py:…`` → ``units``)."""
    return key.split("/", 1)[0].split(".py:", 1)[0]


def profile_record(stats: Iterable[Any], scenario: str, seed: int) -> Dict[str, Any]:
    """Fold ``cProfile.Profile.getstats()`` into one run's record.

    Two code objects with one key (two lambdas of one function) add up.
    """
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    edges: Dict[str, Dict[str, int]] = {}
    for entry in stats:
        key = function_key(entry.code)
        if key is None:
            continue
        calls[key] = calls.get(key, 0) + entry.callcount
        self_s[key] = self_s.get(key, 0.0) + entry.inlinetime
        total_s[key] = total_s.get(key, 0.0) + entry.totaltime
        for sub in entry.calls or ():
            callee = function_key(sub.code)
            if callee is not None:
                out = edges.setdefault(key, {})
                out[callee] = out.get(callee, 0) + sub.callcount
    return {
        "scenario": scenario,
        "seed": seed,
        "calls": dict(sorted(calls.items())),
        "edges": {
            caller: dict(sorted(out.items()))
            for caller, out in sorted(edges.items())
        },
        "self_s": {key: round(s, 9) for key, s in sorted(self_s.items())},
        "total_s": {key: round(s, 9) for key, s in sorted(total_s.items())},
    }


class ProfiledSpan(TimedSpan):
    """The ``sim_loop`` span of a profiled trace.

    ``cProfile`` runs over exactly the loop the span times; a clean exit
    writes the run's record (the span's ``scenario`` and ``seed``) to the
    observer's profile stream. A loop that raised writes none.
    """

    __slots__ = ("profiler",)

    def __enter__(self) -> "ProfiledSpan":
        self.profiler = cProfile.Profile(builtins=False)
        super().__enter__()
        self.profiler.enable()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.profiler.disable()
        super().__exit__(*exc_info)
        writer = self.observer.profile
        if exc_info[0] is None and writer is not None:
            writer.write_record(profile_record(
                self.profiler.getstats(),
                self.fields["scenario"],
                self.fields["seed"],
            ))


class ProfileWriter(StreamWriter):
    """The profile stream's writer: one record per profiled run."""

    spec = PROFILE


profile_path = PROFILE.path
read_profile = PROFILE.read


# -- aggregation -------------------------------------------------------


def _add(into: Dict[str, Any], items: Iterable[Any]) -> None:
    for key, value in items:
        into[key] = into.get(key, 0) + value


@dataclass
class ProfileAggregate:
    """Sum of many runs' profile records (what the exporters render).

    ``calls`` and ``edges`` are exact integer sums — identical whatever
    jobs= produced the records; ``self_s`` and ``total_s`` sum the
    machine-dependent times.
    """

    calls: Dict[str, int] = field(default_factory=dict)
    edges: Dict[str, Dict[str, int]] = field(default_factory=dict)
    self_s: Dict[str, float] = field(default_factory=dict)
    total_s: Dict[str, float] = field(default_factory=dict)
    runs: int = 0

    def fold(self, record: Dict[str, Any]) -> None:
        """Add one profile record into the aggregate."""
        _add(self.calls, record["calls"].items())
        for caller, out in record["edges"].items():
            _add(self.edges.setdefault(caller, {}), out.items())
        _add(self.self_s, record["self_s"].items())
        _add(self.total_s, record["total_s"].items())
        self.runs += 1

    @property
    def total_wall_s(self) -> float:
        """Total profiled self time across every function."""
        return sum(self.self_s.values())

    def layers(self) -> Dict[str, List[str]]:
        """The two-level tree the folded and Chrome views draw:
        layer → its functions, both in name order."""
        tree: Dict[str, List[str]] = {}
        for key in sorted(self.calls):
            tree.setdefault(layer_of(key), []).append(key)
        return dict(sorted(tree.items()))


def aggregate_profiles(records: Iterable[Dict[str, Any]]) -> ProfileAggregate:
    """Fold profile records (e.g. a whole sweep's) into one aggregate."""
    aggregate = ProfileAggregate()
    for record in records:
        aggregate.fold(record)
    return aggregate


def _us(seconds: float) -> int:
    return int(round(seconds * MILLION))


# -- exporters ---------------------------------------------------------


def render_folded(aggregate: ProfileAggregate) -> str:
    """The flamegraph.pl input format: ``layer;function <self-µs>``.

    Zero-weight functions keep a line (weight 0) so the shape is
    identical across machines even when a fast box rounds a function's
    self time down to nothing.
    """
    lines = [
        f"{layer};{key} {_us(aggregate.self_s[key])}"
        for layer, keys in aggregate.layers().items()
        for key in keys
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def render_callgrind(aggregate: ProfileAggregate) -> str:
    """A callgrind-format profile: per-function self cost + call edges.

    Two event types per cost line: self wall microseconds and call
    count. A record keeps an edge's calls, not its time, so an edge's
    inclusive cost is the callee's total time split across its callers
    in proportion to their calls.
    """
    out = [
        "# callgrind format",
        "version: 1",
        "creator: greenenvy obs profile",
        "events: WallUs Calls",
        "",
    ]
    for fn in sorted(aggregate.calls):
        out.append(f"fn={fn}")
        out.append(f"0 {_us(aggregate.self_s[fn])} {aggregate.calls[fn]}")
        for callee, calls in sorted(aggregate.edges.get(fn, {}).items()):
            share = calls / aggregate.calls[callee]
            out.append(f"cfn={callee}")
            out.append(f"calls={calls} 0")
            out.append(f"0 {_us(aggregate.total_s[callee] * share)} {calls}")
        out.append("")
    return "\n".join(out)


def render_chrome_trace(aggregate: ProfileAggregate) -> Dict[str, Any]:
    """A Chrome ``traceEvents`` object laid out from the aggregate.

    A *synthetic* timeline: one complete ("X") slice per layer, as long
    as its functions' self time, holding one slice per function laid end
    to end in name order. Proportions match the run; positions do not
    claim to.
    """
    events: List[Dict[str, Any]] = []

    def _slice(name: str, layer: str, start_us: int, dur_us: int, calls: int):
        return {
            "name": name, "cat": layer, "ph": "X", "ts": start_us,
            "dur": dur_us, "pid": 1, "tid": 1, "args": {"calls": calls},
        }

    cursor = 0
    for layer, keys in aggregate.layers().items():
        start = cursor
        functions = []
        for key in keys:
            dur = _us(aggregate.self_s[key])
            functions.append(_slice(key, layer, cursor, dur, aggregate.calls[key]))
            cursor += dur
        calls = sum(aggregate.calls[key] for key in keys)
        events.append(_slice(layer, layer, start, cursor - start, calls))
        events.extend(functions)
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
    """A text summary for ``obs report``: self time per layer, then the
    ``top`` functions by self time."""
    aggregate = aggregate_profiles(records)
    if not aggregate.calls:
        return "profile: no records"
    total = aggregate.total_wall_s or 1.0
    self_s, calls = aggregate.self_s, aggregate.calls
    layers = sorted(
        (
            (layer, sum(self_s[k] for k in keys), sum(calls[k] for k in keys))
            for layer, keys in aggregate.layers().items()
        ),
        key=lambda row: (-row[1], row[0]),
    )
    functions = sorted(
        ((key, self_s[key], calls[key]) for key in calls),
        key=lambda row: (-row[1], row[0]),
    )[:top]
    lines = [
        f"profile: {aggregate.runs} runs, "
        f"{aggregate.total_wall_s:.3f}s profiled self time in the sim loop"
    ]
    for title, rows in (("by layer", layers), ("hottest functions", functions)):
        lines.append(f"  {title}:")
        for name, wall, n in rows:
            lines.append(
                f"    {name:<56} {wall:>9.4f}s  {100.0 * wall / total:>5.1f}%  "
                f"{n:>10} calls"
            )
    return "\n".join(lines)
