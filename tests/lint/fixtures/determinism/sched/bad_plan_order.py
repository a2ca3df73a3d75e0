"""Hash-order-dependent plan in a sched/ package (lint fixture)."""

from __future__ import annotations

import repro.obs.journal


def plan(flows):
    # det-set-iteration: start order follows the hash of the flow names
    order = [name for name in {flow.name for flow in flows}]
    # obs-no-feedback: a plan that depends on what the journal says
    return order if repro.obs.journal else []
