"""API-hygiene family: small Python footguns with outsized blast radius.

These are generic (not simulator-specific) but each one has bitten a
CCA-comparison harness somewhere: a mutable default argument shares
state across *flows*; a bare ``except:`` swallows ``KeyboardInterrupt``
and simulator invariant errors alike; and a module without
``from __future__ import annotations`` breaks the project's typing
conventions (string annotations are what let determinism-critical
modules import ``random`` under ``TYPE_CHECKING`` only). The first two
duplicate ruff's ``B006``/``E722``, which CI runs; they stay because
``make check`` skips ruff where it is not installed, which leaves them
as the only local check. The fourth rule is the project's own: scenarios
name their scheduling policy with a string (``policy=``), and only this
rule keeps code outside ``repro/sched`` from branching on that string
instead of dispatching through the policy registry.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, LintContext, ModuleInfo, Rule

_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
)


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _MUTABLE_CONSTRUCTORS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _MUTABLE_CONSTRUCTORS:
            return True
    return False


class MutableDefault(Rule):
    """Mutable default argument values."""

    name = "api-mutable-default"
    family = "api-hygiene"
    description = (
        "mutable default argument ([]/{}/set()); shared across calls — "
        "default to None and create inside"
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    label = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        module,
                        default,
                        f"mutable default `{module.segment(default)}` in "
                        f"`{label}`; one instance is shared by every call",
                    )


class BareExcept(Rule):
    """``except:`` with no exception type."""

    name = "api-bare-except"
    family = "api-hygiene"
    description = (
        "bare `except:` catches SystemExit/KeyboardInterrupt and hides "
        "simulator invariant errors; name the exception type"
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        for node in module.nodes:
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare `except:`; catch a specific exception (at "
                    "minimum `except Exception:`)",
                )


class MissingFutureAnnotations(Rule):
    """Module lacks ``from __future__ import annotations``."""

    name = "api-missing-future"
    family = "api-hygiene"
    description = (
        "module lacks `from __future__ import annotations` (required for "
        "TYPE_CHECKING-only imports and cheap annotations)"
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        statements = module.tree.body
        # docstring-only (or empty) modules have nothing to annotate
        meaningful = [
            s
            for s in statements
            if not (
                isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant)
            )
        ]
        if not meaningful:
            return
        for stmt in statements:
            if (
                isinstance(stmt, ast.ImportFrom)
                and stmt.module == "__future__"
                and any(alias.name == "annotations" for alias in stmt.names)
            ):
                return
        yield self.finding(
            module,
            meaningful[0],
            "missing `from __future__ import annotations` at module top",
        )


#: scheduling-policy names whose string comparison means branching on
#: the policy outside the policy subsystem
_SCHED_LITERALS = frozenset({"fair", "serialized", "srpt"})

#: the policy subsystem itself (registry, aliases, policy classes) may
#: of course name its own policies
_SCHED_PACKAGE_DIR = "sched"


def _banned_literal(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value in _SCHED_LITERALS
    ):
        return node.value
    return None


def _literal_container_hit(node: ast.AST) -> str | None:
    """A policy literal inside a literal tuple/list of strings, if any."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    for element in node.elts:
        hit = _banned_literal(element)
        if hit is not None:
            return hit
    return None


class SchedModeLiteral(Rule):
    """String comparison against a scheduling-policy name."""

    name = "sched-no-mode-literals"
    family = "api-hygiene"
    description = (
        "comparison against a scheduling-policy literal ('fair'/"
        "'serialized'/'srpt') outside repro/sched; dispatch through the "
        "policy registry (resolve_policy_name/get_policy) instead"
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        if module.in_directory(_SCHED_PACKAGE_DIR):
            return
        for node in module.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                left, right = operands[i], operands[i + 1]
                if isinstance(op, (ast.Eq, ast.NotEq)):
                    hit = _banned_literal(left) or _banned_literal(right)
                    if hit is not None:
                        yield self.finding(
                            module,
                            node,
                            f"equality test against policy literal "
                            f"{hit!r}; policy-branching belongs in "
                            f"repro/sched — dispatch through the "
                            f"registry or a named constant",
                        )
                elif isinstance(op, (ast.In, ast.NotIn)):
                    # `"fair" in names` (validating a dynamic list) is
                    # fine; `policy in ("fair", ...)` is a policy branch.
                    hit = _literal_container_hit(right)
                    if hit is not None:
                        yield self.finding(
                            module,
                            node,
                            f"membership test over a literal policy-name "
                            f"container (contains {hit!r}); dispatch "
                            f"through the repro/sched registry instead",
                        )


HYGIENE_RULES = [
    MutableDefault(),
    BareExcept(),
    MissingFutureAnnotations(),
    SchedModeLiteral(),
]
