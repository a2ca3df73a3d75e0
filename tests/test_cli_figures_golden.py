"""Golden outputs of the figure commands and of their parsers.

Each case is one ``greenenvy`` command line at a scale that runs in
about a second; its expected output sits under
``tests/golden/figures/<case>.txt`` as ``exit: N`` followed by the
command's stdout, byte for byte. ``parser.json`` pins every action of
each figure subparser (and of ``report``, which shares their sizing
flags): option strings, dest, default, type name, choices, help. The
``--help`` text itself is not pinned, since argparse's layout differs
between Python versions. A refactor of how the commands are declared
must leave every file unchanged. To regenerate after a deliberate
change, run ``PYTHONPATH=src python -m tests.test_cli_figures_golden``
and review the diff.
"""

import argparse
import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

GOLDEN = Path(__file__).resolve().parent / "golden" / "figures"

CASES = {
    "fig1": ["fig1", "--bytes", "400000", "--reps", "1"],
    "fig2": ["fig2", "--reps", "1"],
    "fig3": ["fig3", "--bytes", "400000"],
    "fig4": ["fig4", "--reps", "1"],
    "grid": ["grid", "--bytes", "3000000", "--reps", "1"],
    # no run retransmits: corr(energy, retx) is undefined and prints n/a
    "grid-lossfree": ["grid", "--bytes", "1000000", "--reps", "1"],
    "srpt": ["srpt"],
    "incast": ["incast", "--bytes", "400000"],
    "loadbalance": ["loadbalance"],
    "workload": ["workload"],
    "fabric": [
        "fabric", "--flows", "40", "--leaves", "2", "--spines", "1",
        "--hosts-per-leaf", "4",
    ],
    "pareto": [
        "pareto", "--flows", "20", "--leaves", "2", "--spines", "1",
        "--hosts-per-leaf", "2", "--link-batch", "400000,200000",
    ],
    "mptcp": ["mptcp", "--bytes", "400000"],
    "mechanisms": ["mechanisms", "--bytes", "400000"],
    # the claims fail at this scale, so the command exits 1
    "report": ["report", "--bytes", "400000", "--reps", "1"],
}

#: the subcommands whose parser actions ``parser.json`` pins
PARSERS = (
    "fig1", "fig2", "fig3", "fig4", "grid", "srpt", "incast",
    "loadbalance", "workload", "fabric", "pareto", "mptcp", "mechanisms",
    "report",
)


def render(case):
    """``exit: N`` plus the stdout of one case's command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(CASES[case])
    return f"exit: {code}\n{out.getvalue()}"


def _action(action):
    return {
        "option_strings": action.option_strings,
        "dest": action.dest,
        "default": action.default,
        "type": getattr(action.type, "__name__", None),
        "choices": list(action.choices) if action.choices else None,
        "help": action.help,
        "metavar": action.metavar,
        "kind": type(action).__name__,
    }


def parser_actions():
    """``{subcommand: [action, ...]}`` for every name in ``PARSERS``."""
    (commands,) = (
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: [_action(action) for action in commands.choices[name]._actions]
        for name in PARSERS
    }


def render_parsers():
    return json.dumps(parser_actions(), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_matches_golden(case):
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert render(case) == expected


def test_parser_actions_match_golden():
    expected = (GOLDEN / "parser.json").read_text(encoding="utf-8")
    assert render_parsers() == expected


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in sorted(CASES):
        (GOLDEN / f"{case}.txt").write_text(render(case), encoding="utf-8")
    (GOLDEN / "parser.json").write_text(render_parsers(), encoding="utf-8")
