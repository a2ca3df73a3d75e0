"""Every entry point of the program, one test each, run in-process for ``make reach``.

``python -m mutants.reach`` runs this file under the probe's plugin and
records the lines of ``src/repro`` each test executes. Nothing here
checks a result beyond the exit code: a test is a way in, and the
census reads which lines it ran. Everything runs in this process (or in
a forked pool worker, which the plugin records too): a subprocess would
be opaque.

The entry points:

- every ``greenenvy`` subcommand once at its golden scale (the figure
  commands' ``CASES`` of ``tests/test_cli_figures_golden.py``, ``BASE``
  for the rest), plus one run per non-default ``choices`` value and one
  per ``store_true`` flag, derived from ``build_parser()``, and one per
  value option that switches a code path on (``OPTIONS``);
- the Makefile's CI recipes (``lint``, the three baseline sweeps with
  their ``obs diff``, ``obs profile``) and CI's pooled ``fig1 --jobs 2
  --trace`` read back through ``obs watch``/``obs report``;
- each ``examples/*.py`` through ``runpy``;
- ``bench.child.main`` in every mode for every workload at ``--smoke``.
"""

from __future__ import annotations

import argparse
import runpy
import sys
from pathlib import Path

import pytest

from tests.test_cli_figures_golden import CASES

ROOT = Path(__file__).resolve().parents[1]
TRACE = "<trace>"  # stands for the traced fig1 sweep's directory
BASELINES = ROOT / "benchmarks" / "baselines"

#: each subcommand that is not a figure case, at the scale CI or the
#: Makefile runs it
BASE = {
    "lint": ["lint", "src", "examples"],
    "advise": ["advise", "1e7", "2e7"],
    "policies": ["policies"],
    "obs report": ["obs", "report", TRACE],
    "obs timeline": ["obs", "timeline", TRACE, "--samples", "3"],
    "obs snapshot": ["obs", "snapshot", TRACE],
    "obs diff": ["obs", "diff", str(BASELINES / "seed.json"), TRACE],
    "obs watch": ["obs", "watch", "--once", "--baseline", str(BASELINES / "seed.json"), TRACE],
    "obs profile": ["obs", "profile", "<profile>"],
}

#: the options that take a value and switch a code path on, each once
#: beside its base run
OPTIONS = {
    "fig1 --abort-on-drift": ["fig1", "--bytes", "400000", "--reps", "2", "--abort-on-drift", str(BASELINES / "seed.json")],
    "fig3 --policy all": [*CASES["fig3"], "--policy", "all"],
    "grid --json": [*CASES["grid-lossfree"], "--json", "<file>"],
    "fabric --ccas hpcc,swift": [*CASES["fabric"], "--ccas", "hpcc,swift"],
    "obs diff --tolerance": [*BASE["obs diff"], "--tolerance", "energy_j=1e-3"],
    "obs snapshot --output": [*BASE["obs snapshot"], "--output", "<file>"],  # make baseline
}

#: the Makefile's baseline recipes: a traced sweep, then its ``obs diff``
RECIPES = {
    "obs-diff": (["fig1", "--bytes", "400000", "--reps", "2"], "seed.json"),
    "fabric-obs-diff": (["fabric", "--flows", "1000", "--ccas", "dctcp,dcqcn", "--mix", "rpc"], "fabric.json"),
    "pareto": (["pareto"], "pareto.json"),
}


def subcommands(parser: argparse.ArgumentParser, prefix: tuple[str, ...] = ()):
    """``(name words, subparser)`` for every leaf subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from subcommands(child, (*prefix, name))
                if not any(isinstance(a, argparse._SubParsersAction) for a in child._actions):
                    yield (*prefix, name), child


def base(words: tuple[str, ...]) -> list[str]:
    name = " ".join(words)
    return list(CASES[name]) if name in CASES else list(BASE[name])


def cli_runs() -> dict[str, list[str]]:
    """Each subcommand at its base, then one run per non-default choice
    and per boolean flag, added to that base, then ``OPTIONS``."""
    from repro.cli import build_parser

    runs: dict[str, list[str]] = dict(OPTIONS)
    for words, parser in subcommands(build_parser()):
        argv = base(words)
        runs[" ".join(words)] = argv
        for action in parser._actions:
            if not action.option_strings:
                continue
            flag = action.option_strings[0]
            if isinstance(action, argparse._StoreTrueAction):
                runs[f"{' '.join(words)} {flag}"] = [*argv, flag]
            for choice in action.choices or ():
                if choice != action.default:
                    runs[f"{' '.join(words)} {flag} {choice}"] = [*argv, flag, choice]
    return runs


RUNS = cli_runs()
# the tests import the program again, under the tracer: what runs at
# import (module code, the parser's tables) counts as run
for _name in [name for name in sys.modules if name.split(".")[0] == "repro"]:
    del sys.modules[_name]


@pytest.fixture(scope="session")
def trace(tmp_path_factory):
    """CI's pooled traced sweep, which the ``obs`` views read."""
    from repro.cli import main

    directory = tmp_path_factory.mktemp("trace")
    assert main(["fig1", "--bytes", "400000", "--reps", "2", "--jobs", "2", "--trace", str(directory)]) == 0
    return directory


def resolve(argv: list[str], trace: Path, tmp_path: Path) -> list[str]:
    places = {TRACE: str(trace), "<profile>": str(tmp_path / "profile"), "<file>": str(tmp_path / "out.json")}
    return [places.get(word, word) for word in argv]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli(name, trace, tmp_path):
    from repro.cli import main

    assert main(resolve(RUNS[name], trace, tmp_path)) in (0, 1)


def test_cache_dir_replays(tmp_path):
    from repro.cli import main

    for _ in range(2):  # the second run reads what the first stored
        assert main([*CASES["fig1"], "--cache-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_make_recipe(recipe, tmp_path):
    from repro.cli import main

    sweep, baseline = RECIPES[recipe]
    assert main([*sweep, "--trace", str(tmp_path)]) == 0
    assert main(["obs", "diff", str(BASELINES / baseline), str(tmp_path)]) == 0


def test_ci_watch_smoke(trace):
    from repro.cli import main

    assert main(["obs", "watch", "--once", "--json", "--baseline", str(BASELINES / "seed.json"), str(trace)]) == 0
    assert main(["obs", "report", "--format", "json", str(trace)]) == 0


@pytest.mark.parametrize("script", sorted((ROOT / "examples").glob("*.py")), ids=lambda path: path.stem)
def test_example(script, monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "argv", [str(script)])
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")


@pytest.mark.parametrize("mode", ["probe", "measure", "trace"])
@pytest.mark.parametrize("workload", ["cca_mtu_grid", "dumbbell_sweep", "fabric_datacenter", "lossy_mix"])
def test_bench_child(mode, workload):
    from bench.child import main as child

    assert child([mode, "--workload", workload, "--smoke", "--seconds", "0", "--iterations", "1"]) == 0
