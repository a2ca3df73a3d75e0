"""The probe's own tests (not tier-1): ``python -m pytest mutants/tests -q``."""

from __future__ import annotations

import ast
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

from mutants.probe import ROOT, TIMEOUT, copy_tree, pytest as run_pytest, run_all, run_group
from mutants.regressions import REGRESSIONS
from mutants.sites import apply, enumerate_sites, file_sites

SNIPPET = """\
class Meter:
    LIMIT = 4

    def update(self, x, y):
        if x < y and not self.done:
            self.total = max(x, 0.5)
        return x
"""


def test_each_operator_edits_its_span(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "meter.py").write_text(SNIPPET)
    sites = {site.id: site for site in file_sites(tmp_path, "src/meter.py")}
    edits = {sid: apply(SNIPPET, site) for sid, site in sites.items()}
    assert "if x >= y and not self.done:" in edits["src/meter.py:5:13:compare"]
    assert "if x < y and self.done:" in edits["src/meter.py:5:21:not"]
    assert "    LIMIT = 5\n" in edits["src/meter.py:2:12:constant"]
    assert "max(x, 1.0)" in edits["src/meter.py:6:32:constant"]
    assert "self.total = (x)\n" in edits["src/meter.py:6:29:maxmin"]
    assert "self.total = (0.5)\n" in edits["src/meter.py:6:32:maxmin"]
    assert "            pass\n" in edits["src/meter.py:6:12:self"]
    assert len(edits) == 7
    # a class-level site runs at import, one in a method at call time
    assert sites["src/meter.py:2:12:constant"].import_time
    assert not sites["src/meter.py:5:13:compare"].import_time


def test_site_ids_are_stable_and_every_mutant_parses():
    for package in ("repro.obs", "repro.harness"):
        sites = enumerate_sites(ROOT, package)
        ids = [site.id for site in sites]
        assert ids == [site.id for site in enumerate_sites(ROOT, package)]
        assert len(set(ids)) == len(ids)
        for site in sites:
            ast.parse(apply((ROOT / site.path).read_text(encoding="utf-8"), site))


def test_every_regression_row_edits_one_place():
    # a refactor that moves or deletes a row's old text turns the row
    # into a "gone" report nobody reads: fail here instead
    for origin, what, path, old, _new in REGRESSIONS:
        text = (ROOT / "src" / "repro" / path).read_text(encoding="utf-8")
        assert text.count(old) == 1, f"{origin} | {what} | {path}"


def fixture_tree(root: Path) -> Path:
    (root / "src" / "fix").mkdir(parents=True)
    (root / "src" / "fix" / "__init__.py").write_text("")
    (root / "src" / "fix" / "clamp.py").write_text("def clamp(x):\n    return max(x, 0)\n")
    (root / "tests" / "fix").mkdir(parents=True)
    (root / "tests" / "fix" / "test_clamp.py").write_text(
        "from fix.clamp import clamp\n\n\ndef test_clamp():\n    assert clamp(-3) == 0\n"
    )
    (root / "pyproject.toml").write_text('[tool.pytest.ini_options]\ntestpaths = ["tests"]\n')
    return root


def test_a_killed_and_a_surviving_mutant_are_both_reported(tmp_path):
    outcomes, _ = run_all(fixture_tree(tmp_path), ["fix"])
    assert {o.site.id: (o.status, o.killers) for o in outcomes} == {
        # max(x, 0) -> x
        "src/fix/clamp.py:2:15:maxmin": ("killed", {"tests/fix/test_clamp.py::test_clamp"}),
        # max(x, 0) -> 0
        "src/fix/clamp.py:2:18:maxmin": ("survived", set()),
        # max(x, 1)
        "src/fix/clamp.py:2:18:constant": ("killed", {"tests/fix/test_clamp.py::test_clamp"}),
    }


def test_a_run_past_its_timeout_is_killed_with_its_process_group(tmp_path):
    pid_file = tmp_path / "pid"
    started = time.perf_counter()
    argv = ["sh", "-c", f"sleep 30 & echo $! > {pid_file}; wait"]
    assert run_group(argv, tmp_path, dict(os.environ), 1) is None
    assert time.perf_counter() - started < 10
    grandchild = Path(f"/proc/{pid_file.read_text().strip()}")
    deadline = time.monotonic() + 5
    # gone, or dead and waiting to be reaped by its new parent
    while grandchild.exists() and time.monotonic() < deadline:
        if (grandchild / "stat").read_text().split(")")[-1].split()[0] == "Z":
            break
        time.sleep(0.05)
    else:
        assert not grandchild.exists()
    # ...and a pytest run that outlives its budget is reported as killed by timeout
    tree = fixture_tree(tmp_path / "fixture")
    (tree / "tests" / "fix" / "test_slow.py").write_text("import time\n\n\ndef test_slow():\n    time.sleep(30)\n")
    copy_tree(tree, tmp_path / "copy")
    assert run_pytest(tmp_path / "copy", ["tests/fix/test_slow.py"], None, 3) == {TIMEOUT}


def gone(pid: int) -> bool:
    """Whether process ``pid`` has exited (a zombie awaiting its reaper counts)."""
    proc = Path(f"/proc/{pid}")
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            if (proc / "stat").read_text().split(")")[-1].split()[0] == "Z":
                return True
        except FileNotFoundError:
            return True
        time.sleep(0.05)
    return False


def test_a_sigterm_kills_the_runs_in_flight_and_removes_the_scratch_trees(tmp_path):
    # the probe's shape in small: a scratch TemporaryDirectory, and in it
    # one run whose group (sh and its sleep) is its own session
    pids = tmp_path / "pids"
    parent = textwrap.dedent(f"""\
        import os, tempfile
        from pathlib import Path
        from mutants.probe import run_group, stop_on_sigterm

        stop_on_sigterm()
        with tempfile.TemporaryDirectory(prefix="mutants-", dir={str(tmp_path)!r}) as scratch:
            argv = ["sh", "-c", "sleep 30 & echo $$ $! > {pids}.tmp; mv {pids}.tmp {pids}; wait"]
            run_group(argv, Path(scratch), dict(os.environ), 60)
    """)
    env = {**os.environ, "PYTHONPATH": str(ROOT)}
    process = subprocess.Popen([sys.executable, "-c", parent], cwd=ROOT, env=env)
    try:
        deadline = time.monotonic() + 30
        while not pids.exists():
            assert process.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        assert list(tmp_path.glob("mutants-*"))  # the scratch tree is there
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=10) == 128 + signal.SIGTERM
    finally:
        process.kill()
        process.wait()
    shell, sleep = (int(pid) for pid in pids.read_text().split())
    assert gone(shell) and gone(sleep)
    assert not list(tmp_path.glob("mutants-*"))
