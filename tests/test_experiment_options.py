"""Every experiment and protocol option has a caller.

A field of :class:`Scenario`, :class:`FlowSpec` or :class:`FabricScenario`
enters every cache key, and the tests and docs must cover it; a
parameter of a protocol constructor (:class:`Nic`, :class:`Host`,
:class:`TcpSender`, :class:`TcpReceiver`, :class:`RttEstimator`,
:class:`WindowedFilter`) selects a code path the tests must cover. One
that nothing outside ``tests/`` sets is a constant in disguise. This
census parses ``src/``, ``bench/`` and ``examples/`` (stdlib :mod:`ast`,
nothing imported from them) and fails naming each option no call there
sets. A setter is a keyword (or positional) argument of a direct call of
the class, a keyword of ``dataclasses.replace`` (for the scenario
classes), or a keyword that ``scenario_from_plan`` passes through to
:class:`Scenario`. A test that needs another value of a constant
overrides it in a subclass.
"""

import ast
import inspect
from pathlib import Path

from repro.cc.filters import WindowedFilter
from repro.harness.experiment import (
    FabricScenario,
    FlowSpec,
    Scenario,
    scenario_from_plan,
)
from repro.net.host import Host
from repro.net.nic import Nic
from repro.tcp.receiver import TcpReceiver
from repro.tcp.rtt import RttEstimator
from repro.tcp.sender import TcpSender

ROOT = Path(__file__).resolve().parent.parent

#: the dataclasses that describe an experiment (``replace`` sets them too)
SCENARIOS = {cls.__name__: cls for cls in (Scenario, FlowSpec, FabricScenario)}
CLASSES = {
    **SCENARIOS,
    **{
        cls.__name__: cls
        for cls in (Nic, Host, TcpSender, TcpReceiver, RttEstimator, WindowedFilter)
    },
}

#: options only tests set, each kept for its reason
KEPT = {
    ("Scenario", "bottleneck_discipline"): (
        "the counter oracle's priority shape builds a pFabric bottleneck "
        "through it; policy='srpt' cannot, it also swaps the sender's CCA"
    ),
    ("FabricScenario", "time_limit_s"): (
        "run_once reads it for both kinds of scenario, and the starved-"
        "fabric test reaches the time-limit error through it"
    ),
}


def options(cls):
    """The constructor's parameters, in order (a dataclass's fields)."""
    return inspect.signature(cls).parameters


def setters():
    """Every (class name, option) some call under src/, bench/ or
    examples/ sets."""
    own = set(inspect.signature(scenario_from_plan).parameters)
    positional = {
        name: [
            option
            for option, param in options(cls).items()
            if param.kind is param.POSITIONAL_OR_KEYWORD
        ]
        for name, cls in CLASSES.items()
    }
    found = set()
    for root in ("src", "bench", "examples"):
        for path in sorted((ROOT / root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
                if name in CLASSES:
                    keywords |= set(positional[name][: len(node.args)])
                    found |= {(name, kw) for kw in keywords}
                elif name == "replace":
                    found |= {(cls, kw) for cls in SCENARIOS for kw in keywords}
                elif name == "scenario_from_plan":
                    found |= {("Scenario", kw) for kw in keywords - own}
    return found


def test_every_field_has_a_setter_outside_the_tests():
    found = setters()
    unset = {
        (name, option)
        for name, cls in CLASSES.items()
        for option in options(cls)
        if (name, option) not in found
    }
    missing = sorted(unset - set(KEPT))
    assert not missing, f"no call outside tests/ sets these options: {missing}"
    stale = sorted(set(KEPT) - unset)
    assert not stale, f"these kept options have a caller now: {stale}"
