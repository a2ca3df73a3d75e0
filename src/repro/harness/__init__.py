"""Experiment orchestration: scenarios, runner, parallel execution, caching."""

from __future__ import annotations

from repro._lazy import lazy_exports

#: public name -> the submodule that defines it, imported on first use
_EXPORTS = {
    "FlowSpec": "experiment",
    "Scenario": "experiment",
    "FabricScenario": "experiment",
    "AnyScenario": "experiment",
    "scenario_from_plan": "experiment",
    "RunMeasurement": "runner",
    "RepeatedResult": "runner",
    "run_once": "runner",
    "run_repeated": "runner",
    "WorkItem": "executor",
    "run_work_items": "executor",
    "ResultCache": "cache",
    "SCHEMA_VERSION": "cache",
    "compute_key": "cache",
    "measurement_to_dict": "cache",
    "measurement_from_dict": "cache",
    "Sweep": "sweep",
    "SweepResults": "sweep",
    "SweepRow": "sweep",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
