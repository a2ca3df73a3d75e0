"""One comparison's arms: what each costs next to the fair arm.

Theorem 1 and every policy figure ask one question of a set of runs:
what does this arm cost against fair sharing? Fig. 3's panels, the
SRPT and workload comparisons, the fabric and Pareto sweeps and the
MPTCP placements each run one scenario per arm, and :class:`Arms` is
what they all hold: the arm lookup, the saving against ``fair`` and the
flow-level statistics the tables print.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence

from repro.analysis.stats import mean
from repro.core.savings import savings_percent
from repro.errors import ExperimentError
from repro.harness.experiment import AnyScenario
from repro.harness.runner import RepeatedResult
from repro.harness.sweep import Sweep, SweepResults
from repro.obs.attrib import top_flow_share_percent
from repro.sched import resolve_policy_name


@dataclass
class Arms:
    """Repeated measurements keyed by arm: a canonical policy name, or
    a figure's own arm label (MPTCP's placements). ``label`` names the
    comparison in errors."""

    results: Dict[str, RepeatedResult]
    label: str

    def __iter__(self) -> Iterator[str]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __contains__(self, name: object) -> bool:
        return name in self.results

    def __getitem__(self, which: str) -> RepeatedResult:
        """One arm; a policy name is looked up in its canonical spelling."""
        name = which
        if name not in self.results:
            try:
                name = resolve_policy_name(which)
            except ExperimentError:
                pass  # not a policy: reported below with the arms that ran
        result = self.results.get(name)
        if result is None:
            ran = ", ".join(sorted(self.results))
            raise ExperimentError(f"{self.label}: no arm {which!r} (ran: {ran})")
        return result

    def savings_percent(self, name: str) -> float:
        """Energy the arm saves relative to the fair arm, in percent."""
        return savings_percent(self["fair"].mean_energy_j, self[name].mean_energy_j)

    def mean_fct_s(self, name: str) -> float:
        """Mean completion time over every flow of every run."""
        return mean(self.fcts_s(name))

    def fcts_s(self, name: str) -> List[float]:
        """Every flow's completion time, run by run."""
        return [
            flow.duration_s for run in self[name].runs for flow in run.flow_results
        ]

    def fct_speedup(self, name: str) -> float:
        """Fair's mean FCT over this arm's (> 1: the arm is faster)."""
        return self.mean_fct_s("fair") / self.mean_fct_s(name)

    def fct_p50_s(self, name: str) -> float:
        return self._extras_mean(name, "fct_p50_s")

    def fct_p99_s(self, name: str) -> float:
        return self._extras_mean(name, "fct_p99_s")

    def _extras_mean(self, name: str, key: str) -> float:
        return mean([float(run.extras.get(key, 0.0)) for run in self[name].runs])

    def top_flow_share_percent(self, name: str) -> float:
        """Mean share of each run's joules billed to its hungriest flow.

        The attribution ledger's one-number view of how concentrated an
        arm leaves the energy bill: a serialized schedule pushes it
        toward the largest flow's share, fair sharing flattens it.
        """
        return mean([top_flow_share_percent(run) for run in self[name].runs])


def run_arms(
    factory: Callable[[str], AnyScenario],
    names: Sequence[str],
    seed: int,
    label: str,
) -> Arms:
    """One run of each arm's scenario at ``seed``: a one-axis
    :class:`~repro.harness.sweep.Sweep`, the path every figure takes."""
    rows = Sweep({"arm": list(names)}).run(
        lambda arm: factory(arm), repetitions=1, base_seed=seed
    ).rows
    return Arms({row["arm"]: row.result for row in rows}, label)


def arms_by(results: SweepResults, axis: str) -> Dict[str, Arms]:
    """An ``axis`` x ``policy`` sweep's rows as one :class:`Arms` per
    ``axis`` value, in sweep order. A value is kept only once its fair
    arm exists (a partial figure from an aborted sweep may lack it):
    every saving is relative to it."""
    grouped: Dict[str, Dict[str, RepeatedResult]] = {}
    for row in results.rows:
        grouped.setdefault(row[axis], {})[row["policy"]] = row.result
    return {
        key: Arms(arms, label=f"{axis}={key}")
        for key, arms in grouped.items()
        if "fair" in arms
    }
