"""Every experiment and protocol option has a caller, and every public
name a reader.

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

The same holds one level down, for names: a public function, class,
constant, method, property or instance attribute of ``src/repro`` that
only tests read is code kept for the tests alone. The name census lists
every public name ``src/repro`` defines (module level, class level, and
``self.<name> =`` in a method) and fails on each one no code under
``src/``, ``bench/`` or ``examples/`` reads. A read is a load of the
name, a keyword, an import, a ``@register...`` decorator, or the name
inside a string that is a bare dotted path (a ``Figure.driver`` path, a
``getattr`` name) or a ``"...".split()`` list; docstrings and the rows
of a package's lazy-export table (``_EXPORTS``, :mod:`repro._lazy`) are
not reads. Names match by spelling alone, so a name any class reads
counts for every class that defines it. A row of such a table is a
second import path for its name, so each row needs an importer of its
own: a ``from repro.<package> import name`` under ``src/``, ``bench/``
or ``examples/``, or in a ``python`` block of README.md or ``docs/``.
"""

import ast
import inspect
import re
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
from tests.test_outside_imports import DOCS, imports, python_blocks

ROOT = Path(__file__).resolve().parent.parent
#: where the program's readers live; ``tests/`` is not one of them
READERS = ("src", "bench", "examples")

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


def parsed(roots):
    """``(path, module tree)`` of every ``*.py`` under ``roots``."""
    for root in roots:
        for path in sorted((ROOT / root).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


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
    for _path, tree in parsed(READERS):
        for node in ast.walk(tree):
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


# -- the name census -------------------------------------------------------

#: public names only tests read, each kept for its reason
KEPT_NAMES = {
    "repro.cc.base:CongestionControl.in_slow_start": (
        "the reference every CCA's on_ack writes out in place (one frame "
        "less per ACK); the cc tests compare the copies with it"
    ),
    "repro.tcp.receiver:TcpReceiver.advertised_rwnd": (
        "the reference _send_ack's written-out window copies; "
        "tests/tcp/test_call_shape.py holds the ACK's rwnd_bytes to it"
    ),
    "repro.sim.engine:Simulator.push": (
        "the reference the packet path's pushes write out in place; the "
        "kernel's model test and merge oracle drive it"
    ),
    "repro.obs.journal:VOLATILE_FIELDS": (
        "defines the determinism contract: the journal fields two runs of "
        "one command may differ in (docs/observability.md)"
    ),
    "repro.errors:SweepAbortedError.partial_sweep": (
        "documented salvage of an aborted sweep; ROADMAP item 13(a)'s "
        "fault suite needs it"
    ),
    "repro.figures.ablation:concavity_exponent_sweep": (
        "ROADMAP item 12's audit keeps figures/ablation.py "
        "(docs/calibration.md, the BBR2 golden)"
    ),
    "repro.figures.ablation:Bbr2AlphaAblation.alpha_overhead_vs_bbr": (
        "ROADMAP item 12's audit keeps figures/ablation.py"
    ),
    "repro.figures.ablation:Bbr2AlphaAblation.mature_overhead_vs_bbr": (
        "ROADMAP item 12's audit keeps figures/ablation.py"
    ),
    "repro.analysis.concavity:chord_gap": (
        "Fig. 2's argument as a number: how far the smooth-sending curve "
        "sits above the full-speed-then-idle chord; ROADMAP item 12's "
        "audit keeps analysis/concavity.py as the oracle for measured "
        "Fig. 2 series"
    ),
    "repro.figures.ablation:concavity_ablation": (
        "EXPERIMENTS.md's Theorem 1 section (a linear curve saves exactly "
        "0 %) rests on it; ROADMAP item 18(b) picks a subcommand, a Claim "
        "or deletion"
    ),
    "repro.figures.ablation:bbr2_alpha_ablation": (
        "docs/calibration.md's +41 % -> +2 % and tests/golden/ablation/"
        "bbr2.txt rest on it; ROADMAP item 18(b)"
    ),
    "repro.figures.ablation:ecn_threshold_ablation": (
        "EXPERIMENTS.md's DCTCP marking-threshold ablation; ROADMAP item 18(b)"
    ),
    "repro.figures.ablation:buffer_ablation": (
        "EXPERIMENTS.md's bottleneck-buffer ablation; ROADMAP item 18(b)"
    ),
}

IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
#: a string that names code: ``repro.figures.fig1:run``, ``"tx_bytes"``
DOTTED_PATH = re.compile(r"[\w.:]+")


def public(name):
    return not name.startswith("_")


def assigned(node):
    """The names a module- or class-level statement binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = []
    for target in targets:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                names.append(sub.id)
    return names


def defined_in(body, prefix=""):
    """``prefix + name`` of every public name ``body`` defines: its
    functions, classes and assignments, and, inside a class, the
    ``self.<name>`` its methods store."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not public(node.name):
                continue
            yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from defined_in(node.body, f"{prefix}{node.name}.")
                attributes = {
                    sub.attr
                    for method in node.body
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for sub in ast.walk(method)
                    if isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                    and public(sub.attr)
                }
                for attr in sorted(attributes):
                    yield f"{prefix}{node.name}.{attr}", None
        for name in assigned(node):
            if public(name):
                yield prefix + name, node


def definitions():
    """``{"module:Qualified.name": definition node or None}`` for every
    public name ``src/repro`` defines."""
    found = {}
    for path, tree in parsed(["src/repro"]):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for name, node in defined_in(tree.body):
            found.setdefault(f"{module}:{name}", node)
    return found


def registers(node):
    """Whether a decorator registers the definition (``@register``,
    ``@REGISTRY.register("name")``): the registry reads it."""
    for decorator in getattr(node, "decorator_list", ()):
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name.startswith("register"):
            return True
    return False


def docstrings(tree):
    """The string constants that are docstrings (not reads)."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        )
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def export_table(tree):
    """The ``_EXPORTS = {name: submodule}`` dict a package's
    ``__init__`` holds for :mod:`repro._lazy`, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "_EXPORTS"
            for target in node.targets
        ):
            return node.value
    return None


def reads():
    """Every identifier some code under src/, bench/ or examples/ reads."""
    found = set()
    for _path, tree in parsed(READERS):
        skip = docstrings(tree)
        table = export_table(tree)
        if table is not None:
            skip |= {id(node) for node in ast.walk(table)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                found.add(node.arg)
            elif isinstance(node, ast.alias):
                found.update(node.name.split("."))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "split"
                and isinstance(node.func.value, ast.Constant)
                and isinstance(node.func.value.value, str)
            ):
                found.update(IDENTIFIER.findall(node.func.value.value))
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in skip
                and DOTTED_PATH.fullmatch(node.value)
            ):
                found.update(IDENTIFIER.findall(node.value))
    return found


def test_every_public_name_has_a_reader_outside_the_tests():
    found = reads()
    unread = {
        qualified
        for qualified, node in definitions().items()
        if qualified.split(":")[1].split(".")[-1] not in found
        and not registers(node)
    }
    missing = sorted(unread - set(KEPT_NAMES))
    assert not missing, f"nothing outside tests/ reads these names: {missing}"
    stale = sorted(set(KEPT_NAMES) - unread)
    assert not stale, f"these kept names have a reader now: {stale}"


# -- one import path per name ----------------------------------------------


def export_rows():
    """``(package, name)`` per row of every lazy-export table in
    ``src/repro``."""
    rows = set()
    for path, tree in parsed(["src/repro"]):
        table = export_table(tree)
        if path.name == "__init__.py" and table is not None:
            package = ".".join(path.parent.relative_to(ROOT / "src").parts)
            rows |= {(package, key.value) for key in table.keys}
    return rows


def package_imports():
    """``(module, name)`` per ``from module import name`` under src/,
    bench/ or examples/, or in a ``python`` block of the docs."""
    trees = [tree for _path, tree in parsed(READERS)]
    trees += [tree for path in DOCS for tree in python_blocks(path)]
    return {
        (module, name)
        for tree in trees
        for _line, module, name in imports(tree)
        if name is not None
    }


def test_every_lazy_export_is_imported_through_its_package_outside_the_tests():
    rows = export_rows()
    assert rows, "no lazy-export table found"
    unused = sorted(f"{package}.{name}" for package, name in rows - package_imports())
    assert not unused, (
        f"nothing outside tests/ imports these through their package "
        f"(import them from the submodule, and drop the row): {unused}"
    )
