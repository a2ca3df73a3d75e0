"""Experiment orchestration: scenarios, runner, parallel execution, caching."""

from __future__ import annotations

from repro.harness.cache import (
    SCHEMA_VERSION,
    ResultCache,
    compute_key,
    measurement_from_dict,
    measurement_to_dict,
)
from repro.harness.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    WorkItem,
    resolve_executor,
    run_work_items,
)
from repro.harness.experiment import (
    AnyScenario,
    FabricScenario,
    FlowSpec,
    Scenario,
    scenario_from_plan,
)
from repro.harness.runner import (
    RepeatedResult,
    RunMeasurement,
    run_once,
    run_repeated,
)
from repro.harness.sweep import Sweep, SweepResults, SweepRow

__all__ = [
    "FlowSpec",
    "Scenario",
    "FabricScenario",
    "AnyScenario",
    "scenario_from_plan",
    "RunMeasurement",
    "RepeatedResult",
    "run_once",
    "run_repeated",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "WorkItem",
    "resolve_executor",
    "run_work_items",
    "ResultCache",
    "SCHEMA_VERSION",
    "compute_key",
    "measurement_to_dict",
    "measurement_from_dict",
    "Sweep",
    "SweepResults",
    "SweepRow",
]
