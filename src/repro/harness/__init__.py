"""Experiment orchestration: scenarios, runner, parallel execution, caching."""

from __future__ import annotations

from repro._lazy import lazy_exports

#: public name -> the submodule that defines it, imported on first use
_EXPORTS = {
    "FlowSpec": "experiment",
    "Scenario": "experiment",
    "FabricScenario": "experiment",
    "scenario_from_plan": "experiment",
    "RunMeasurement": "runner",
    "run_once": "runner",
    "run_repeated": "runner",
    "ResultCache": "cache",
    "compute_key": "cache",
    "measurement_to_dict": "cache",
    "Sweep": "sweep",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
