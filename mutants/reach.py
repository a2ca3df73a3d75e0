"""The execution census: which lines and functions of ``src/repro`` no entry point runs.

``python -m mutants.reach`` (``make reach``) runs ``mutants/entries.py``,
one test per entry point, under the probe's own plugin (``-p
mutants.plugin`` with ``MUTANTS_COVER``/``MUTANTS_TARGETS``), so forked
pool workers are recorded and a test that starts a subprocess is opaque.
It folds the lines those tests ran against each module's executable lines
(its code objects' ``co_lines``) and prints the never-run lines per
package, laid out like ``make loc``, then the functions that ran no line
of their body.

It exits 1 on a never-run function with no ``REACH_KEPT`` row, and on a
stale row (the function runs now, or is gone). A method of a
``typing.Protocol`` class is a declaration and is exempt by rule. A
function written on its ``def`` line shares that line with its module's
code, which runs at import, so the census cannot tell whether it ran.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import CodeType
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
ENTRIES = ROOT / "mutants" / "entries.py"

#: the never-run functions kept, ``path under the package:qualname``, under one reason each
REACH_KEPT: dict[str, tuple[str, ...]] = {
    "reference: the program writes it out in place (or computes it another way), "
    "and tests hold the copies to it": (
        "analysis/concavity.py:chord_gap",
        "cc/base.py:CongestionControl.in_slow_start",
        "energy/calibration.py:network_power_w",
        "sim/engine.py:Simulator.push",
        "tcp/receiver.py:TcpReceiver.advertised_rwnd",
    ),
    "error or finding path: no entry point provokes it (ROADMAP item 13 owns the "
    "fault suite; the tree lints clean)": (
        "apps/iperf.py:_stuck_error",
        "cli.py:_aborted_exit",
        "errors.py:SweepAbortedError.__init__",
        "harness/executor.py:_worker_error",
        "lint/core.py:Finding.format",
        "lint/rules/units.py:_describe",
        "obs/live.py:request_abort",
        "sim/engine.py:Simulator.refusal",
    ),
    "protocol event: the entry points' workloads never trigger it (the CI fabric "
    "sweep marks and drops nothing: CHANGES.md's FOUND on benchmarks/baselines/fabric.json)": (
        "cc/base.py:CongestionControl.on_ecn",
        "cc/bbr2.py:Bbr2.on_ecn",
        "cc/constant.py:ConstantCwnd.on_ecn",
        "cc/dcqcn.py:Dcqcn._cnp",
        "cc/dcqcn.py:Dcqcn.on_congestion_event",
        "cc/dcqcn.py:Dcqcn.on_ecn",
        "cc/dcqcn.py:Dcqcn.on_rto",
        "cc/dctcp.py:Dctcp.on_congestion_event",
        "cc/hpcc.py:Hpcc.on_congestion_event",
        "cc/swift.py:Swift.on_congestion_event",
        "harness/cache.py:_series_from_dict",
        "harness/cache.py:_series_to_dict",
        "net/queue.py:PriorityQueue._least_urgent_flow",
    ),
    "counter: a COUNTER_FIELDS entry read by name through Counted.counters; no entry "
    "point reads this owner's counters, tests/counter_oracle.json pins them": (
        "net/link.py:Interface.tx_packets",
        "net/switch.py:Switch.rx_bytes",
        "net/switch.py:Switch.rx_packets",
    ),
    "dunder or declaration: tests use it implicitly (len, truthiness, iteration, ==, "
    "repr, dir) or a subclass overrides it": (
        "_lazy.py:lazy_exports.<locals>.__dir__",
        "cc/base.py:CongestionControl.__repr__",
        "cc/base.py:CongestionControl.pacing_rate_bps",
        "harness/cache.py:ResultCache.__len__",
        "harness/sweep.py:SweepResults.__len__",
        "lint/core.py:Rule.check",
        "net/packet.py:Packet.__repr__",
        "net/queue.py:DropTailQueue.__len__",
        "net/queue.py:PriorityQueue.__len__",
        "sched/policy.py:SchedulingPolicy.__repr__",
        "sim/engine.py:Event.__repr__",
        "sim/probe.py:TimeSeriesProbeSink.__len__",
        "sim/trace.py:TimeSeries.__eq__",
        "sim/trace.py:TimeSeries.__iter__",
        "sim/trace.py:TimeSeries.__repr__",
        "tcp/ranges.py:RangeSet.__bool__",
        "tcp/ranges.py:RangeSet.__iter__",
        "tcp/ranges.py:RangeSet.__len__",
    ),
    "white-box state: tests read it to judge a run or a part, and the program "
    "reports it no other way (ROADMAP item 4's test audit)": (
        "energy/meter.py:EnergyMeter.average_power_w",
        "energy/meter.py:EnergyMeter.energy_j",
        "harness/cache.py:ResultCache.key",
        "net/link.py:Interface.busy",
        "obs/live.py:DriftGate.settled",
        "obs/live.py:LiveSweepView.bad_lines",
        "sim/probe.py:TimeSeriesProbeSink.series",
        "sim/timer.py:PeriodicTimer.running",
        "sim/timer.py:Timer.pending",
        "tcp/sender.py:TcpSender.in_recovery",
    ),
}


@dataclass(frozen=True)
class Function:
    id: str  # "path under the package:qualname"
    body: frozenset[int]  # executable lines after the def line
    size: int  # source lines, decorators to the last line
    declaration: bool  # a member of a typing.Protocol class


def _code_objects(code: CodeType) -> Iterator[CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


def _lines(code: CodeType) -> set[int]:
    return {line for _start, _end, line in code.co_lines() if line is not None}


def _defs(tree: ast.Module) -> Iterator[tuple[str, ast.AST, bool]]:
    """``(qualname, node, in a Protocol class)`` for every ``def``."""

    def walk(node: ast.AST, prefix: str, protocol: bool) -> Iterator[tuple[str, ast.AST, bool]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                yield name, child, protocol
                yield from walk(child, f"{name}.<locals>.", False)
            elif isinstance(child, ast.ClassDef):
                bases = {ast.unparse(base) for base in child.bases}
                yield from walk(child, f"{prefix}{child.name}.", bool(bases & {"Protocol", "typing.Protocol"}))
            else:
                yield from walk(child, prefix, protocol)

    yield from walk(tree, "", False)


def module(path: Path, name: str) -> tuple[set[int], list[Function]]:
    """A module's executable lines and its functions."""
    source = path.read_text(encoding="utf-8")
    codes = list(_code_objects(compile(source, str(path), "exec")))
    executable = set().union(*map(_lines, codes))
    by_start = {(code.co_firstlineno, code.co_name): code for code in codes}
    functions = []
    for qualname, node, protocol in _defs(ast.parse(source)):
        start = min([node.lineno, *(decorator.lineno for decorator in node.decorator_list)])
        code = by_start[start, node.name]
        body = frozenset(_lines(code) - {code.co_firstlineno})
        functions.append(Function(f"{name}:{qualname}", body, node.end_lineno - start + 1, protocol))
    return executable, functions


def record(root: Path, entries: Path, package: Path) -> set[str]:
    """Run ``entries`` under the plugin from ``root``: every ``path:line``
    under ``package`` that a test, a fixture or a forked child ran."""
    with tempfile.TemporaryDirectory(prefix="reach-") as cover:
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root), str(ROOT)]),
            "MUTANTS_COVER": cover,
            "MUTANTS_TARGETS": str(package),
        }
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "mutants.plugin", str(entries)]
        done = subprocess.run(argv, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode:
            raise SystemExit(f"an entry point failed (pytest exit {done.returncode}); the census needs them all")
        ran: set[str] = set()
        for dump in Path(cover).iterdir():
            payload = json.loads(dump.read_text())
            for entry in payload.get("tests", {}).values():
                ran.update(entry["lines"])
            ran.update(payload.get("lines", ()))
        return ran


@dataclass
class Census:
    lines: dict[str, tuple[int, int]]  # module -> (never-run, executable)
    never_run: list[Function]  # functions that ran no line of their body, declarations excluded
    functions: set[str]  # every function id


def census(root: Path, package: Path, ran: set[str]) -> Census:
    seen: dict[str, set[int]] = defaultdict(set)
    for item in ran:
        where, line = item.rsplit(":", 1)
        seen[where].add(int(line))
    lines: dict[str, tuple[int, int]] = {}
    never_run: list[Function] = []
    functions: set[str] = set()
    for path in sorted(package.rglob("*.py")):
        name = path.relative_to(package).as_posix()
        executable, defs = module(path, name)
        ran_here = seen[path.relative_to(root).as_posix()]
        lines[name] = (len(executable - ran_here), len(executable))
        for function in defs:
            functions.add(function.id)
            if function.body and not function.body & ran_here and not function.declaration:
                never_run.append(function)
    return Census(lines, never_run, functions)


def problems(result: Census, kept: dict[str, tuple[str, ...]]) -> list[str]:
    """A never-run function with no row, and a row that is stale."""
    rows = {function: reason for reason, functions in kept.items() for function in functions}
    never = {function.id for function in result.never_run}
    out = [f"never run, no REACH_KEPT row: {function}" for function in sorted(never - set(rows))]
    out += [f"stale REACH_KEPT row (it runs now): {function}" for function in sorted(set(rows) - never) if function in result.functions]
    out += [f"stale REACH_KEPT row (no such function): {function}" for function in sorted(set(rows) - result.functions)]
    return out


def report(result: Census, kept: dict[str, tuple[str, ...]]) -> str:
    packages: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for name, (never, executable) in result.lines.items():
        group = name.split("/")[0] if "/" in name else name
        packages[group][0] += never
        packages[group][1] += executable
    out = ["never-run / executable lines"]
    out += [f"{never:6d} {executable:6d} {group}" for group, (never, executable) in sorted(packages.items())]
    never = sum(count for count, _ in result.lines.values())
    total = sum(count for _, count in result.lines.values())
    out.append(f"{never:6d} {total:6d} all ({100 * never / max(total, 1):.1f} % never run)")
    size = sum(function.size for function in result.never_run)
    out += ["", f"never-run functions: {len(result.never_run)} ({size} source lines)"]
    rows = {function: reason for reason, functions in kept.items() for function in functions}
    for function in sorted(result.never_run, key=lambda function: function.id):
        reason = rows.get(function.id)
        out.append(f"{function.size:6d} {function.id}" + (f"  [kept: {reason.split(':')[0]}]" if reason else "  [NO ROW]"))
    return "\n".join(out)


def main() -> int:
    result = census(ROOT, PACKAGE, record(ROOT, ENTRIES, PACKAGE))
    print(report(result, REACH_KEPT))
    found = problems(result, REACH_KEPT)
    print("\n".join(["", *found]) if found else f"\n{sum(map(len, REACH_KEPT.values()))} kept rows, all current")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
