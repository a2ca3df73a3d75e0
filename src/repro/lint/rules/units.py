"""Units family: enforce the SI-base-unit convention of ``repro.units``.

The simulator's contract (see ``src/repro/units.py``) is that time is
seconds, sizes are bytes, rates are bits/second and energy is joules.
Identifier *suffixes* carry that contract through the code
(``duration_s``, ``rate_bps``, ``energy_j``), which makes two whole bug
classes statically detectable:

* adding/subtracting/comparing quantities whose suffixes disagree
  (``duration_s + delay_ms``, ``rate_gbps - rate_bps``), and
* passing a value with one suffix to a parameter named with another
  (``f(rate_bps=link_gbps)``).

A third rule bans raw exponent literals (``1e9``, ``1024**3``) outside
``units.py`` so magnitudes are written with the named helpers
(``gbps(10)``, ``msec(1)``) the rest of the code can grep for.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.core import Finding, LintContext, ModuleInfo, Rule, dotted_name

#: identifier suffix -> (dimension, scale). Scales within one dimension
#: are still mutually incompatible without an explicit conversion.
UNIT_SUFFIXES: Dict[str, Tuple[str, str]] = {
    "bps": ("rate", "bps"),
    "kbps": ("rate", "kbps"),
    "mbps": ("rate", "mbps"),
    "gbps": ("rate", "gbps"),
    "bytes": ("data", "bytes"),
    "bits": ("data", "bits"),
    "s": ("time", "s"),
    "sec": ("time", "s"),
    "ms": ("time", "ms"),
    "msec": ("time", "ms"),
    "us": ("time", "us"),
    "usec": ("time", "us"),
    "ns": ("time", "ns"),
    "j": ("energy", "j"),
    "uj": ("energy", "uj"),
    "kj": ("energy", "kj"),
    "w": ("power", "w"),
    "mw": ("power", "mw"),
}

#: longest suffix first so ``_gbps`` wins over ``_bps``
_ORDERED_SUFFIXES = sorted(UNIT_SUFFIXES, key=len, reverse=True)

#: return units of the helpers in :mod:`repro.units`
HELPER_RETURNS: Dict[str, Tuple[str, str]] = {
    "gbps": ("rate", "bps"),
    "mbps": ("rate", "bps"),
    "to_gbps": ("rate", "gbps"),
    "gigabytes": ("data", "bytes"),
    "megabytes": ("data", "bytes"),
    "gigabits": ("data", "bytes"),
    "usec": ("time", "s"),
    "msec": ("time", "s"),
    "to_msec": ("time", "ms"),
    "joules_to_kj": ("energy", "kj"),
    "transmission_time": ("time", "s"),
}


def unit_of_name(identifier: str) -> Optional[Tuple[str, str]]:
    """The (dimension, scale) an identifier's suffix declares, if any."""
    lowered = identifier.lower()
    for suffix in _ORDERED_SUFFIXES:
        if lowered.endswith("_" + suffix):
            return UNIT_SUFFIXES[suffix]
    return None


def unit_of_expr(node: ast.AST) -> Optional[Tuple[str, str]]:
    """Unit of an expression, when statically evident."""
    if isinstance(node, ast.Name):
        return unit_of_name(node.id)
    if isinstance(node, ast.Attribute):
        return unit_of_name(node.attr)
    if isinstance(node, ast.Call):
        callee = dotted_name(node.func)
        if callee is not None:
            return HELPER_RETURNS.get(callee.split(".")[-1])
    return None


def _describe(unit: Tuple[str, str]) -> str:
    return f"{unit[0]} [{unit[1]}]"


class UnitSuffixMismatch(Rule):
    """Add/Sub/Compare over identifiers with conflicting unit suffixes."""

    name = "units-suffix-mismatch"
    family = "units"
    description = (
        "arithmetic or comparison mixes identifiers whose unit suffixes "
        "disagree (e.g. duration_s + delay_ms, rate_gbps < rate_bps)"
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        for node in module.nodes:
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                pairs = [(node.left, node.right)]
            elif isinstance(node, ast.Compare) and len(node.comparators) == 1:
                pairs = [(node.left, node.comparators[0])]
            else:
                continue
            for left, right in pairs:
                lu = unit_of_expr(left)
                ru = unit_of_expr(right)
                if lu is None or ru is None or lu == ru:
                    continue
                yield self.finding(
                    module,
                    node,
                    f"mixes {_describe(lu)} with {_describe(ru)} in "
                    f"`{module.segment(node)}`; convert one side explicitly",
                )


#: parameter/target names that legitimately hold dimensionless epsilons
_TOLERANCE_NAME = re.compile(
    r"^(tol|rtol|atol|abs_tol|rel_tol|eps|epsilon|tolerance)$|(_tol|_eps)$",
    re.IGNORECASE,
)

#: callables whose arguments are tolerances by construction
_TOLERANCE_CALL = re.compile(r"(^|_)(isclose|close|approx)$")

_EXPONENT_LITERAL = re.compile(r"^\d+(\.\d*)?[eE][-+]?\d+$")


class RawExponentLiteral(Rule):
    """Raw ``1e9``-style magnitudes outside ``units.py``.

    Large exponent literals (≥ 1e3) and ``1000**k``/``1024**k`` powers
    are always flagged — write ``gbps(10)``, ``units.MB`` and friends
    instead. Small literals (< 1) are flagged only outside *tolerance
    contexts*: comparison subtrees, defaults/assignments for
    tolerance-named variables (``tol``, ``eps``, …), and arguments to
    ``isclose``/``approx``-style callables, so numeric epsilons stay
    idiomatic while unit conversions (``interval = 1e-3``) do not.
    """

    name = "units-raw-literal"
    family = "units"
    description = (
        "raw exponent literal (1e9, 1024**3) outside units.py; use the "
        "named helpers/constants from repro.units"
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        if module.filename == "units.py":
            return
        tolerant = self._tolerance_nodes(module)
        for node in module.nodes:
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Pow)
                and isinstance(node.left, ast.Constant)
                and node.left.value in (1000, 1024)
                and isinstance(node.right, ast.Constant)
            ):
                yield self.finding(
                    module,
                    node,
                    f"raw power literal `{module.segment(node)}`; use a "
                    f"named constant from repro.units",
                )
                continue
            if not isinstance(node, ast.Constant):
                continue
            if not isinstance(node.value, (int, float)) or isinstance(
                node.value, bool
            ):
                continue
            text = module.segment(node)
            if not _EXPONENT_LITERAL.match(text):
                continue
            magnitude = abs(float(node.value))
            if magnitude >= 1e3:
                yield self.finding(
                    module,
                    node,
                    f"raw exponent literal {text}; use a repro.units "
                    f"helper (gbps/mbps/MILLION/...) so the magnitude is named",
                )
            elif magnitude < 1.0 and node not in tolerant:
                yield self.finding(
                    module,
                    node,
                    f"raw exponent literal {text} outside a tolerance "
                    f"context; use usec()/msec() from repro.units",
                )

    def _tolerance_nodes(self, module: ModuleInfo) -> Set[ast.AST]:
        """All AST nodes inside a recognized tolerance context."""
        roots: List[ast.AST] = []
        for node in module.nodes:
            if isinstance(node, ast.Compare):
                roots.append(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                for param, default in zip(
                    positional[len(positional) - len(args.defaults):],
                    args.defaults,
                ):
                    if _TOLERANCE_NAME.search(param.arg):
                        roots.append(default)
                for param, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None and _TOLERANCE_NAME.search(param.arg):
                        roots.append(default)
            elif isinstance(node, ast.Assign):
                if any(
                    isinstance(t, ast.Name) and _TOLERANCE_NAME.search(t.id)
                    for t in node.targets
                ):
                    roots.append(node.value)
            elif isinstance(node, ast.AnnAssign):
                if (
                    isinstance(node.target, ast.Name)
                    and node.value is not None
                    and _TOLERANCE_NAME.search(node.target.id)
                ):
                    roots.append(node.value)
            elif isinstance(node, ast.Call):
                callee = dotted_name(node.func)
                if callee is not None and _TOLERANCE_CALL.search(
                    callee.split(".")[-1]
                ):
                    roots.extend(node.args)
                    roots.extend(kw.value for kw in node.keywords)
                for kw in node.keywords:
                    if kw.arg is not None and _TOLERANCE_NAME.search(kw.arg):
                        roots.append(kw.value)
        allowed: Set[ast.AST] = set()
        for root in roots:
            allowed.update(ast.walk(root))
        return allowed


class CallUnitMismatch(Rule):
    """Arguments whose unit suffix conflicts with the parameter's."""

    name = "units-call-mismatch"
    family = "units"
    description = (
        "call passes a value whose unit suffix conflicts with the "
        "parameter name (e.g. f(rate_bps=link_gbps))"
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                yield from self._compare(module, node, kw.arg, kw.value)
            if isinstance(node.func, ast.Name) and not any(
                isinstance(arg, ast.Starred) for arg in node.args
            ):
                params = ctx.signatures.get(node.func.id)
                if params:
                    for param, arg in zip(params, node.args):
                        yield from self._compare(module, node, param, arg)

    def _compare(
        self, module: ModuleInfo, call: ast.Call, param: str, arg: ast.expr
    ) -> Iterator[Finding]:
        param_unit = unit_of_name(param)
        arg_unit = unit_of_expr(arg)
        if param_unit is None or arg_unit is None or param_unit == arg_unit:
            return
        yield self.finding(
            module,
            call,
            f"argument `{module.segment(arg)}` carries "
            f"{_describe(arg_unit)} but parameter `{param}` expects "
            f"{_describe(param_unit)}",
        )


UNITS_RULES = [UnitSuffixMismatch(), RawExponentLiteral(), CallUnitMismatch()]
