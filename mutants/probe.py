"""Run every mutant of some packages against the tests, and report what kills it.

``python -m mutants repro.obs repro.harness`` copies what tier-1 reads into
one scratch tree per CPU, maps each test to the lines it executes, and runs
each mutant against its package's own tests (``tests/<last name>``), then,
if it survives or only a pin kills it, the rest of tier-1. The checkout is
never edited.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from mutants.sites import Site, apply, enumerate_sites

ROOT = Path(__file__).resolve().parents[1]

# what tier-1 reads: tests/test_frames_table.py reads docs/, the example
# tests read examples/, the option and name census reads bench/ too,
# tests/test_outside_imports.py imports README.md's python blocks,
# pyproject.toml holds the pytest configuration
COPIED = (
    "src", "tests", "docs", "examples", "bench", "README.md", "pyproject.toml", "mutants",
)

# tests that compare an output with a committed copy of it: a mutant only
# they kill is not covered by a behavioural test
PINS = (
    "tests/harness/test_batch_golden.py::",
    "tests/obs/test_cli_golden.py::",
    "tests/harness/test_cache.py::TestGoldenKeys::",
    "tests/test_telemetry_golden.py::",
    "tests/obs/test_overhead_frames.py::",
    "tests/test_work_counters.py::",
    "tests/test_counter_oracle.py::",
    "tests/harness/test_link_ledger.py::",  # each shape's packet ledger, term by term
    "tests/test_cli_figures_golden.py::",
    "tests/figures/test_mechanisms_golden.py::",
    "tests/figures/test_ablation_golden.py::",
    "tests/figures/test_incast_golden.py::",
)

# mutants no test can kill because no behaviour changes, each with why
EQUIVALENT = {
    "src/repro/obs/journal.py:86:44:constant": "a sort key's 1 -> 2 still sorts after the 0 of itemed events",
    "src/repro/obs/telemetry.py:49:27:constant": "seed is a required telemetry field: the default is never read",
    "src/repro/obs/profile.py:58:64:constant": "seed is a required profile field: the default is never read",
    "src/repro/obs/attrib.py:253:71:constant": "seed is a required telemetry field: the default is never read",
    "src/repro/obs/observer.py:138:8:self": "_t0 is set by __enter__ before __exit__ reads it",
    "src/repro/obs/observer.py:138:19:constant": "_t0 is set by __enter__ before __exit__ reads it",
    "src/repro/harness/executor.py:238:55:maxmin": "the pool's size: results are the same at any worker count",
    "src/repro/harness/executor.py:238:61:maxmin": "the pool's size: results are the same at any worker count",
}

TIMEOUT = "<timeout>"


@dataclass
class Outcome:
    site: Site
    killers: set[str] = field(default_factory=set)

    @property
    def status(self) -> str:
        status = classify(self.killers)
        return "equivalent" if status == "survived" and self.site.id in EQUIVALENT else status


def classify(killers: set[str]) -> str:
    if not killers:
        return "survived"
    if killers == {TIMEOUT}:
        return "timeout"
    return "pin-only" if all(killer.startswith(PINS) for killer in killers) else "killed"


def copy_tree(root: Path, destination: Path) -> None:
    """What tier-1 reads under ``root``, and this package (its runs load the plugin)."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name if name == "mutants" else root / name
        if source.is_dir():
            shutil.copytree(source, destination / name, ignore=ignore)
        elif source.exists():
            shutil.copy2(source, destination / name)


def tree_pool(root: Path, scratch: Path) -> queue.Queue[Path]:
    """One scratch copy per CPU, each lent to one run at a time."""
    trees: queue.Queue[Path] = queue.Queue()
    for slot in range(os.cpu_count() or 1):
        copy_tree(root, scratch / str(slot))
        trees.put(scratch / str(slot))
    return trees


_stamps = itertools.count(1)


@contextlib.contextmanager
def mutated(path: Path, edit: Callable[[str], str]) -> Iterator[None]:
    """``path`` holds ``edit(its text)`` inside the block, and its own text after."""
    original, mtime = path.read_text(encoding="utf-8"), path.stat().st_mtime
    try:
        path.write_text(edit(original), encoding="utf-8")
        # whole seconds apart from every other version of the file, so a
        # cached .pyc (keyed by the source's mtime and size) is stale
        stamp = mtime + next(_stamps)
        os.utime(path, (stamp, stamp))
        yield
    finally:
        path.write_text(original, encoding="utf-8")
        os.utime(path, (mtime, mtime))


# the process groups of the runs in flight: a signal does not reach them
# (each is its own session), so a SIGTERM handler kills them by hand
_groups: set[int] = set()
_groups_lock = threading.RLock()  # re-entrant: the handler runs on a thread that may hold it
_stopping = threading.Event()


def run_group(argv: list[str], cwd: Path, env: dict[str, str], timeout: float) -> int | None:
    """Run ``argv`` in its own process group; on timeout kill the group and return None."""
    with _groups_lock:
        if _stopping.is_set():
            raise SystemExit("stopped by SIGTERM")
        process = subprocess.Popen(
            argv, cwd=cwd, env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        _groups.add(process.pid)
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        return None
    finally:
        with _groups_lock:
            _groups.discard(process.pid)


def stop_on_sigterm() -> None:
    """On SIGTERM, kill every run's process group, start no more, and
    unwind the main thread, so each ``TemporaryDirectory`` removes its
    scratch trees on the way out."""

    def stop(signum: int, _frame: object) -> None:
        with _groups_lock:
            _stopping.set()
            for group in _groups:
                with contextlib.suppress(ProcessLookupError):  # exited, not yet waited for
                    os.killpg(group, signal.SIGKILL)
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)


def pytest(tree: Path, paths: list[str], select: set[str] | None, timeout: float, **extra: str) -> set[str]:
    """The ids of the tests that fail in ``tree``, or ``{TIMEOUT}``."""
    with tempfile.TemporaryDirectory() as scratch:
        failed = Path(scratch) / "failed"
        env = {
            **{name: value for name, value in os.environ.items() if name != "PYTHONDONTWRITEBYTECODE"},
            "PYTHONPATH": str(tree / "src"),
            "MUTANTS_FAILED": str(failed),
            **extra,
        }
        if select is not None:
            (Path(scratch) / "select").write_text("\n".join(sorted(select)))
            env["MUTANTS_SELECT"] = str(Path(scratch) / "select")
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "mutants.plugin", *paths]
        if run_group(argv, tree, env, timeout) is None:
            return {TIMEOUT}
        return set(failed.read_text().split()) if failed.exists() else {"<no report>"}


@dataclass
class Coverage:
    lines: dict[str, set[str]]  # test id -> "path:line" it executed
    seconds: dict[str, float]
    opaque: set[str]  # tests that start a subprocess, whose lines are not traced

    def covering(self, tests: set[str], where: str) -> set[str]:
        return {test for test in tests if test in self.opaque or where in self.lines[test]}

    def touching(self, tests: set[str], files: set[str], test_files: set[str]) -> set[str]:
        return {
            test for test in tests
            if test in self.opaque
            or test.split("::")[0] in test_files
            or any(line.rsplit(":", 1)[0] in files for line in self.lines[test])
        }


def readers(tree: Path, path: str) -> tuple[set[str], set[str]]:
    """Who can read a module-level name of ``path``: the source files that
    are it or import it (or its package), and the test files that import it."""
    module = path[len("src/") : -len(".py")].replace("/", ".")
    names = "|".join(re.escape(name) for name in (module, module.rsplit(".", 1)[0]))
    imports = re.compile(rf"\b(?:from|import)\s+(?:{names})(?=[\s,]|$)", re.M)
    found: dict[str, set[str]] = {"src": {path}, "tests": set()}
    for top in found:
        for file in (tree / top).rglob("*.py"):
            if imports.search(file.read_text(encoding="utf-8")):
                found[top].add(file.relative_to(tree).as_posix())
    return found["src"], found["tests"]


def cover(tree: Path, packages: list[str]) -> Coverage:
    """Run tier-1 once, unmutated and traced: which lines each test executes."""
    with tempfile.TemporaryDirectory() as scratch:
        targets = os.pathsep.join(str(tree / "src" / package.replace(".", "/")) for package in packages)
        failed = pytest(tree, ["tests"], None, 3600, MUTANTS_COVER=scratch, MUTANTS_TARGETS=targets)
        if failed:
            raise SystemExit(f"tier-1 fails before any mutation: {sorted(failed)[:5]}")
        lines: dict[str, set[str]] = {}
        seconds: dict[str, float] = {}
        opaque: set[str] = set()
        users: dict[str, set[str]] = defaultdict(set)  # fixture -> tests using it
        children = []
        for dump in Path(scratch).iterdir():
            record = json.loads(dump.read_text())
            if "tests" not in record:
                children.append(record)
                continue
            for test, entry in record["tests"].items():
                lines[test] = set(entry["lines"])
                seconds[test] = entry["seconds"]
                if entry.get("opaque"):
                    opaque.add(test)
                for fixture in entry["fixtures"]:
                    users[fixture].add(test)
        for child in children:
            for test in {child["test"], *users.get(child["fixture"], ())}:
                lines[test].update(child["lines"])
        return Coverage(lines, seconds, opaque)


def progress(phase: str, outcome: Outcome, select: set[str]) -> Outcome:
    """One line on stderr per finished run (the report waits for all)."""
    killers = " ".join(sorted(outcome.killers))
    print(f"{phase}{outcome.status} | {outcome.site.id} | {len(select)} tests | {killers}", file=sys.stderr, flush=True)
    return outcome


class Probe:
    """Scratch trees, the line map, and the two phases one mutant goes through."""

    def __init__(self, root: Path, packages: list[str], scratch: Path) -> None:
        self.root, self.trees = root, tree_pool(root, scratch)
        self.slots = self.trees.qsize()
        started = time.perf_counter()
        self.coverage = cover(scratch / "0", packages)
        self.traced_s = time.perf_counter() - started
        self.everything = set(self.coverage.lines)
        # the package's own tests: tests/<its last name>/
        own = tuple(f"tests/{package.rsplit('.', 1)[-1]}/" for package in packages)
        self.audited = {test for test in self.everything if test.startswith(own)}

    def mutate_and_run(self, site: Site, select: set[str]) -> set[str]:
        if not select:
            return set()
        tree = self.trees.get()
        budget = 60 + 4 * sum(self.coverage.seconds[test] for test in select)
        files = sorted({test.split("::")[0] for test in select})
        try:
            with mutated(tree / site.path, lambda text: apply(text, site)):
                return pytest(tree, files, select, budget)
        finally:
            self.trees.put(tree)

    def first(self, site: Site) -> Outcome:
        """The package's own tests that run the site (all of them for an import-time site)."""
        where = f"{site.path}:{site.line}"
        select = self.audited if site.import_time else self.coverage.covering(self.audited, where)
        return progress("", Outcome(site, self.mutate_and_run(site, select)), select)

    def second(self, outcome: Outcome) -> Outcome:
        """The rest of tier-1, for a survivor or a pin-only kill."""
        site, rest = outcome.site, self.everything - self.audited
        if site.import_time:
            select = self.coverage.touching(rest, *readers(self.root, site.path))
        else:
            select = self.coverage.covering(rest, f"{site.path}:{site.line}")
        outcome.killers |= self.mutate_and_run(site, select)
        return progress("tier-1: ", outcome, select)


def run_all(root: Path, packages: list[str]) -> tuple[list[Outcome], str]:
    sites = [site for package in packages for site in enumerate_sites(root, package)]
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        probe = Probe(root, packages, Path(scratch))
        with ThreadPoolExecutor(probe.slots) as pool:
            outcomes = list(pool.map(probe.first, sites))
            again = [o for o in outcomes if o.status in ("survived", "equivalent", "pin-only")]
            list(pool.map(probe.second, again))
    how = (
        f"{len(sites)} sites; {probe.slots} trees; tests chosen per mutant from a sys.settrace line map "
        f"of tier-1 ({len(probe.everything)} tests, {len(probe.coverage.opaque)} opaque, traced in "
        f"{probe.traced_s:.0f} s); a module- or class-level site runs every audited test, then every "
        "other tier-1 test that executes a line of its module or of a probed module importing it, "
        f"or whose file imports it; {time.perf_counter() - started:.0f} s in all"
    )
    return outcomes, how


STATUSES = ("killed", "pin-only", "survived", "equivalent", "timeout")


def report(outcomes: list[Outcome], how: str) -> str:
    """Counts per file and function, per file, in total; then one line per mutant."""
    tables: dict[str, dict[str, dict[str, int]]] = defaultdict(
        lambda: defaultdict(lambda: dict.fromkeys(STATUSES, 0))
    )
    for outcome in outcomes:
        site = outcome.site
        for table, row in (("function", f"{site.path} | {site.function}"), ("file", site.path), ("total", "total")):
            tables[table][row][outcome.status] += 1
    out = [f"# {how}"]
    for table, head in (("function", "file | function"), ("file", "file"), ("total", "")):
        out += ["", f"{head or 'all'} | " + " | ".join(STATUSES)]
        out += [f"{row} | " + " | ".join(str(counts[s]) for s in STATUSES) for row, counts in sorted(tables[table].items())]
    out += ["", "status | mutant | function | killing tests (or why equivalent)"]
    for outcome in outcomes:
        site = outcome.site
        why = " ".join(sorted(outcome.killers)) or EQUIVALENT.get(site.id, "")
        out.append(f"{outcome.status} | {site.id} | {site.function} | {why}")
    ids = {outcome.site.id for outcome in outcomes}
    out += [f"equivalent but no such site: {site}" for site in sorted(set(EQUIVALENT) - ids)]
    out += [f"listed as equivalent but killed: {o.site.id}" for o in outcomes if o.site.id in EQUIVALENT and o.killers]
    return "\n".join(out)


def main(packages: list[str]) -> int:
    if not packages or any(arg.startswith("-") for arg in packages):
        print("usage: python -m mutants PACKAGE [PACKAGE ...]   (e.g. repro.obs repro.harness)")
        return 2
    stop_on_sigterm()
    print(report(*run_all(ROOT, packages)))
    return 0
