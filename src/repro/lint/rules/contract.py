"""CCA-contract family: ``cwnd`` is a byte count the clamps keep positive.

The rest of the plug-in contract — every
:class:`~repro.cc.base.CongestionControl` subclass registered under its
own ``name`` and overriding ``on_ack`` — is checked at run time, against
the classes Python already built, by ``tests/cc/test_registry.py``.
What stays here is the one leg a test sees only when the handler runs:
an assignment ``...cwnd = -<expr>`` stores a bare negative window, and
it crashes or stalls a flow only under the loss pattern that reaches it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, LintContext, ModuleInfo, Rule


class CcaNegativeCwnd(Rule):
    """Assignment of a bare negative expression to ``cwnd``."""

    name = "cca-negative-cwnd"
    family = "cca-contract"
    description = (
        "assigning a bare negative expression to cwnd; clamp to the "
        "minimum window instead"
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        if not module.in_directory("cc"):
            return
        for node in module.nodes:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            hits_cwnd = any(
                (isinstance(t, ast.Attribute) and t.attr == "cwnd")
                or (isinstance(t, ast.Name) and t.id == "cwnd")
                for t in targets
            )
            if not hits_cwnd:
                continue
            if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.USub):
                yield self.finding(
                    module,
                    node,
                    f"`{module.segment(node)}` stores a negative window; "
                    f"cwnd is a byte count — clamp via max(min_cwnd, ...)",
                )


CONTRACT_RULES = [CcaNegativeCwnd()]
