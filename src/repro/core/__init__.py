"""The paper's primary contribution: energy-aware allocation analysis."""

from __future__ import annotations

from repro._lazy import lazy_exports

#: public name -> the submodule that defines it, imported on first use
_EXPORTS = {
    "AllocationPlan": "allocation",
    "FlowPlan": "allocation",
    "fair_split": "allocation",
    "limited_flow_split": "allocation",
    "full_speed_then_idle": "allocation",
    "fig1_allocations": "allocation",
    "jain_index": "fairness",
    "DatacenterCostModel": "savings",
    "savings_fraction": "savings",
    "savings_percent": "savings",
    "paper_headline_savings": "savings",
    "check_theorem1": "theorem",
    "fair_allocation": "theorem",
    "is_strictly_concave_on": "theorem",
    "theorem1_savings": "theorem",
    "total_power": "theorem",
    "worst_allocation_is_fair": "theorem",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
