"""Parameter sweeps: run a scenario family over a parameter grid.

:class:`Sweep` is the one execution engine behind the figure pipelines
(Fig. 1's allocation sweep, Fig. 4's load x bitrate matrix, the
CCA x MTU grid) and any new experiment: declare axes, provide a
scenario factory, get back tidy rows with group-by helpers. Because
every grid point x repetition is an independent seeded simulation,
``run`` fans the whole sweep through the executor layer — ``jobs=8``
runs eight simulations at a time, ``cache=`` makes unchanged reruns
near-instant, and both are bit-identical to a serial run.

    sweep = Sweep(axes={"mtu": [1500, 9000], "cca": ["cubic", "bbr"]})
    results = sweep.run(
        lambda mtu, cca: Scenario(
            f"{cca}@{mtu}", flows=[FlowSpec(10_000_000, cca=cca)],
            mtu_bytes=mtu, packages=1,
        ),
        repetitions=3,
        jobs=8,                     # process-pool parallelism
        cache="results/cache",      # content-addressed reuse
    )
    for row in results.rows:
        print(row.params, row.result.mean_energy_j)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import ExperimentError, SweepAbortedError
from repro.harness.cache import ResultCache
from repro.harness.executor import ResultHook, WorkItem, run_work_items
from repro.harness.experiment import AnyScenario
from repro.harness.runner import RepeatedResult, RunMeasurement
from repro.obs.observer import NULL_OBSERVER, Observer

ScenarioFactory = Callable[..., AnyScenario]


@dataclass
class SweepRow:
    """One grid point's parameters and aggregated measurements."""

    params: Dict[str, Any]
    result: RepeatedResult

    def __getitem__(self, key: str) -> Any:
        return self.params[key]


@dataclass
class SweepResults:
    """All rows of one sweep, with simple relational helpers."""

    rows: List[SweepRow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def where(self, **conditions: Any) -> "SweepResults":
        """Rows matching every ``axis=value`` condition."""
        matched = [
            row
            for row in self.rows
            if all(row.params.get(k) == v for k, v in conditions.items())
        ]
        return SweepResults(rows=matched)

    def one(self, **conditions: Any) -> SweepRow:
        """The single row matching the conditions (raises otherwise)."""
        matched = self.where(**conditions).rows
        if len(matched) != 1:
            raise ExperimentError(
                f"expected exactly one row for {conditions}, got {len(matched)}"
            )
        return matched[0]

    def values(self, axis: str) -> List[Any]:
        """Distinct values of one axis, in first-seen order."""
        seen: List[Any] = []
        for row in self.rows:
            value = row.params[axis]
            if value not in seen:
                seen.append(value)
        return seen

    def series(
        self, x_axis: str, metric: Callable[[RepeatedResult], float],
        **fixed: Any,
    ) -> List["tuple[Any, float]"]:
        """(x, metric) points along one axis with the others fixed."""
        subset = self.where(**fixed)
        return [
            (row.params[x_axis], metric(row.result)) for row in subset.rows
        ]


class Sweep:
    """A cartesian-product parameter sweep."""

    def __init__(self, axes: Mapping[str, Sequence[Any]]):
        if not axes:
            raise ExperimentError("sweep needs at least one axis")
        for name, values in axes.items():
            if not values:
                raise ExperimentError(f"axis {name!r} has no values")
        self.axes = {name: list(values) for name, values in axes.items()}

    @property
    def size(self) -> int:
        """Number of grid points."""
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    def points(self) -> List[Dict[str, Any]]:
        """Every parameter combination, in axis order."""
        names = list(self.axes)
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*self.axes.values())
        ]

    def run(
        self,
        factory: ScenarioFactory,
        repetitions: int = 2,
        base_seed: int = 0,
        *,
        jobs: Optional[int] = None,
        cache: Union[None, str, Path, ResultCache] = None,
        observer: Optional[Observer] = None,
        on_result: Optional[ResultHook] = None,
        partial_figure: Optional[Callable[[SweepResults], Any]] = None,
    ) -> SweepResults:
        """Run every grid point's scenario ``repetitions`` times.

        All ``size * repetitions`` simulations are flattened into one
        work-item batch and dispatched together, so parallelism spans
        the whole grid, not just one cell. Seeds are per-repetition
        (``base_seed + rep``, the same for every grid point), fixed
        before dispatch — results do not depend on the backend or on
        worker scheduling. ``observer`` journals the sweep without
        changing a result; whoever built it closes it.

        ``on_result`` sees every finished item and may stop the batch
        (see :data:`~repro.harness.executor.ResultHook`). When the batch
        is aborted, this is the one place the propagating
        :class:`~repro.errors.SweepAbortedError` is given its richer
        views: ``partial_sweep``, a :class:`SweepResults` holding every
        grid point whose ``repetitions`` runs all finished, and — when
        the caller passes its rows -> result builder as
        ``partial_figure`` — ``partial_figure``, that builder applied
        to the salvaged rows.
        """
        if repetitions < 1:
            raise ExperimentError(
                f"need >= 1 repetition, got {repetitions}"
            )
        points = self.points()
        scenarios = [factory(**point) for point in points]
        items = [
            WorkItem(scenario=scenario, seed=base_seed + rep)
            for scenario in scenarios
            for rep in range(repetitions)
        ]

        def rows(finished: Mapping[int, RunMeasurement]) -> SweepResults:
            """The grid points whose every repetition is in ``finished``
            (keyed by submission index)."""
            results = SweepResults()
            for i, (point, scenario) in enumerate(zip(points, scenarios)):
                indices = range(i * repetitions, (i + 1) * repetitions)
                if all(j in finished for j in indices):
                    runs = [finished[j] for j in indices]
                    results.rows.append(
                        SweepRow(
                            params=point,
                            result=RepeatedResult(scenario.name, runs),
                        )
                    )
            return results

        obs = NULL_OBSERVER if observer is None else observer
        if obs.enabled:
            obs.emit(
                "sweep_started",
                axes={name: len(vals) for name, vals in self.axes.items()},
                grid_points=len(points),
                repetitions=repetitions,
                items=len(items),
            )
        try:
            measurements = run_work_items(
                items, jobs=jobs, cache=cache, observer=obs, on_result=on_result
            )
        except SweepAbortedError as exc:
            # Salvage the grid points that finished every repetition so
            # callers can still render a partial figure.
            partial = rows(exc.partial)
            exc.partial_sweep = partial
            if partial_figure is not None:
                exc.partial_figure = partial_figure(partial)
            if obs.enabled:
                obs.emit(
                    "sweep_aborted",
                    items=len(exc.partial),
                    grid_points=len(partial.rows),
                    reason=exc.reason,
                )
            raise
        if obs.enabled:
            obs.emit("sweep_finished", items=len(measurements))
        return rows(dict(enumerate(measurements)))
