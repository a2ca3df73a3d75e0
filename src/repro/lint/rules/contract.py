"""CCA-contract family: the plug-in surface every algorithm must honor.

``repro.cc`` mirrors the kernel's pluggable congestion-control table:
experiments select algorithms by registry *name*, the sender drives them
exclusively through the :class:`~repro.cc.base.CongestionControl` hooks,
and ``cwnd`` is a byte count that the clamp helpers keep positive. A
subclass that forgets any leg of that contract fails silently — it runs,
but the grid experiments never exercise it, or it crashes only under the
loss pattern that makes ``cwnd`` negative. These rules check, for every
``CongestionControl`` subclass defined under a ``cc/`` directory (the
hierarchy is resolved across modules, so ``Bbr2(Bbr)`` counts):

* the class body binds ``name`` (the registry key),
* the class is referenced from the sibling ``cc/registry.py``,
* ``on_ack`` is overridden somewhere below the base class, and
* no assignment ``...cwnd = -<expr>`` stores a bare negative window.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, LintContext, ModuleInfo, Rule

BASE_CLASS = "CongestionControl"


def _cca_class_defs(module: ModuleInfo, ctx: LintContext) -> Iterator[ast.ClassDef]:
    """Concrete CCA subclasses defined in this ``cc/`` module."""
    if not module.in_directory("cc"):
        return
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef) or node.name == BASE_CLASS:
            continue
        lineage = ctx.cca_lineage(module, node.name)
        if not lineage:
            continue
        # the chain must end at (a class whose bases include) the base
        if any(BASE_CLASS in facts.bases for facts in lineage):
            yield node


class CcaMissingName(Rule):
    """Subclass does not bind the ``name`` registry key."""

    name = "cca-missing-name"
    family = "cca-contract"
    description = (
        "CongestionControl subclass must set the `name` ClassVar (its "
        "registry key)"
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        for node in _cca_class_defs(module, ctx):
            facts = ctx.cc_classes["/".join(module.parts[:-1])][node.name]
            if "name" not in facts.assigned_names:
                yield self.finding(
                    module,
                    node,
                    f"{node.name} does not set `name`; experiments select "
                    f"CCAs by registry name",
                )


class CcaUnregistered(Rule):
    """Subclass never referenced from the sibling ``registry.py``."""

    name = "cca-unregistered"
    family = "cca-contract"
    description = (
        "CongestionControl subclass is not referenced from cc/registry.py, "
        "so no experiment can select it"
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        if module.filename == "registry.py":
            return
        registered = ctx.registry_names.get("/".join(module.parts[:-1]))
        if registered is None:
            return  # no registry module in this directory's file set
        for node in _cca_class_defs(module, ctx):
            if node.name not in registered:
                yield self.finding(
                    module,
                    node,
                    f"{node.name} is never referenced from registry.py; "
                    f"register() it so the grid experiments can run it",
                )


class CcaOverrideOnAck(Rule):
    """Neither the subclass nor an intermediate ancestor defines on_ack."""

    name = "cca-override-on-ack"
    family = "cca-contract"
    description = (
        "CongestionControl subclass must override on_ack (directly or via "
        "an ancestor below the base class)"
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        for node in _cca_class_defs(module, ctx):
            lineage = ctx.cca_lineage(module, node.name)
            overridden = any(
                "on_ack" in facts.methods
                for facts in lineage
                if facts.name != BASE_CLASS
            )
            if not overridden:
                yield self.finding(
                    module,
                    node,
                    f"{node.name} inherits the base-class on_ack; override "
                    f"it (or suppress if the default is the algorithm)",
                )


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


CONTRACT_RULES = [
    CcaMissingName(),
    CcaUnregistered(),
    CcaOverrideOnAck(),
    CcaNegativeCwnd(),
]
