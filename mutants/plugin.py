"""The pytest plugin a probe run loads (``-p mutants.plugin``), driven by its environment.

- ``MUTANTS_SELECT``: a file of test ids; every other test is deselected.
- ``MUTANTS_FAILED``: where the ids of failing tests (and of test files
  that fail to collect) are written, one a line.
- ``MUTANTS_COVER``: a directory for each test's executed lines under the
  ``MUTANTS_TARGETS`` directories (``os.pathsep``-separated), traced with
  ``sys.settrace``, as JSON, one file per process: forked children (pool
  workers) write theirs when they exit. A test that starts a subprocess
  is opaque (the child is not traced). What a class-, module- or
  session-scoped fixture runs counts for every test that uses it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import pytest

_FAILED: list[str] = []
_COVER = os.environ.get("MUTANTS_COVER")
_TARGETS = tuple(filter(None, os.environ.get("MUTANTS_TARGETS", "").split(os.pathsep)))
_ROOT = os.getcwd()  # the tree under test; ids and paths are relative to it
_current: str | None = None
_lines: set[tuple[str, int]] = set()
_tests: dict[str, dict] = {}
_fixture_lines: dict[str, set[tuple[str, int]]] = {}  # per class/module/session fixture
_fixture: str | None = None  # the one being set up


def _local(frame, event, arg):
    if event == "line":
        _lines.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(_TARGETS):
        _lines.add((frame.f_code.co_filename, frame.f_lineno))
        return _local
    return None


def _dump(name: str, payload: dict) -> None:
    with open(os.path.join(_COVER, name), "w") as handle:
        json.dump(payload, handle)


def _relative(lines: set[tuple[str, int]]) -> list[str]:
    return sorted(f"{os.path.relpath(path, _ROOT)}:{line}" for path, line in lines)


def _in_child() -> None:
    """A forked child records only what it runs, and writes it at ``os._exit``."""
    parent_test, fixture = _current, _fixture
    _lines.clear()
    real_exit = os._exit

    def exit_after_dump(code: int) -> None:
        if parent_test is not None:
            payload = {"test": parent_test, "fixture": fixture, "lines": _relative(_lines)}
            _dump(f"child-{os.getpid()}.json", payload)
        real_exit(code)

    os._exit = exit_after_dump


def _opaque_popen(real_init):
    def init(self, *args, **kwargs):
        if _current is not None:
            _tests.setdefault(_current, {})["opaque"] = True
        real_init(self, *args, **kwargs)

    return init


def pytest_configure(config) -> None:
    if _COVER:
        os.register_at_fork(after_in_child=_in_child)
        subprocess.Popen.__init__ = _opaque_popen(subprocess.Popen.__init__)


def pytest_collection_modifyitems(config, items) -> None:
    select = os.environ.get("MUTANTS_SELECT")
    if not select:
        return
    with open(select) as handle:
        wanted = set(handle.read().split("\n"))
    deselected = [item for item in items if item.nodeid not in wanted]
    items[:] = [item for item in items if item.nodeid in wanted]
    config.hook.pytest_deselected(items=deselected)


def _fixture_key(fixturedef) -> str:
    return f"{fixturedef.baseid}::{fixturedef.argname}"


@pytest.hookimpl(hookwrapper=True)
def pytest_fixture_setup(fixturedef, request):
    global _lines, _fixture
    if not _COVER or fixturedef.scope == "function":
        yield
        return
    outer, _lines, _fixture = _lines, set(), _fixture_key(fixturedef)
    yield
    _fixture_lines[_fixture] = _lines
    _lines, _fixture = outer | _lines, None


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    global _current
    if not _COVER:
        yield
        return
    _current = item.nodeid
    _lines.clear()
    started = time.perf_counter()
    for settrace in (sys.settrace, threading.settrace):
        settrace(_global)  # again for each test: a test may have replaced the tracer
    yield
    for settrace in (sys.settrace, threading.settrace):
        settrace(None)
    fixtures = [
        _fixture_key(definitions[-1])
        for definitions in item._fixtureinfo.name2fixturedefs.values()
        if definitions[-1].scope != "function"
    ]
    for fixture in fixtures:
        _lines.update(_fixture_lines.get(fixture, ()))
    entry = _tests.setdefault(item.nodeid, {})
    entry["seconds"] = time.perf_counter() - started
    entry["lines"] = _relative(_lines)
    entry["fixtures"] = fixtures
    _current = None


def pytest_runtest_logreport(report) -> None:
    if report.failed:
        _FAILED.append(report.nodeid)


pytest_collectreport = pytest_runtest_logreport


def pytest_sessionfinish(session, exitstatus) -> None:
    failed = os.environ.get("MUTANTS_FAILED")
    if failed:
        with open(failed, "w") as handle:
            handle.write("".join(f"{nodeid}\n" for nodeid in _FAILED))
    if _COVER:
        _dump(f"session-{os.getpid()}.json", {"tests": _tests})
