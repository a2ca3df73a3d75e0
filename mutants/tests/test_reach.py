"""The execution census on a toy package of four functions and a Protocol stub."""

from __future__ import annotations

import textwrap

import pytest

from mutants.reach import census, problems, record

TOY = """\
import typing


class Sink(typing.Protocol):
    def take(self, x: int) -> None:
        ...


def used(x):
    return x + 1


def unused(x):
    return x - 1


def in_child(x):
    return x * 2


def also_used(x):
    return used(x) * 3
"""

ENTRIES = """\
import os

from toy.funcs import also_used, in_child


def test_calls():
    assert also_used(1) == 6


def test_fork():
    pid = os.fork()
    if pid == 0:
        in_child(2)
        os._exit(0)
    assert os.waitpid(pid, 0)[1] == 0
"""


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    package = root / "src" / "toy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "funcs.py").write_text(TOY)
    (root / "entries.py").write_text(textwrap.dedent(ENTRIES))
    ran = record(root, root / "entries.py", package)
    return ran, census(root, package, ran)


def test_exactly_the_one_never_run_function_is_reported(toy):
    _ran, result = toy
    assert [function.id for function in result.never_run] == ["funcs.py:unused"]


def test_a_protocol_stub_is_exempt(toy):
    _ran, result = toy
    assert "funcs.py:Sink.take" in result.functions
    assert "funcs.py:Sink.take" not in {function.id for function in result.never_run}


def test_a_line_run_only_in_a_forked_child_counts(toy):
    ran, result = toy
    assert "src/toy/funcs.py:18" in ran  # in_child's body, run only by the child
    assert "funcs.py:in_child" in result.functions


def test_a_never_run_function_without_a_row_fails(toy):
    _ran, result = toy
    assert problems(result, {}) == ["never run, no REACH_KEPT row: funcs.py:unused"]
    assert problems(result, {"a reason": ("funcs.py:unused",)}) == []


def test_a_stale_row_fails(toy):
    _ran, result = toy
    kept = {"a reason": ("funcs.py:unused", "funcs.py:used", "funcs.py:gone")}
    assert problems(result, kept) == [
        "stale REACH_KEPT row (it runs now): funcs.py:used",
        "stale REACH_KEPT row (no such function): funcs.py:gone",
    ]
