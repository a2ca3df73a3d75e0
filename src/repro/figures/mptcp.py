"""§2 extension: subflow multiplexing energy (the MPTCP findings).

The related-work section cites Zhao et al. [59, 60]: CPU energy for the
transport is proportional to average throughput and path delay, and
"eliminating link sharing between sub-flows" minimizes CPU consumption
for the same network resource. "Our work confirms these insights."

This experiment makes that confirmation concrete: move the same payload
as

* **single** — one flow (the efficient baseline),
* **subflows-shared** — k parallel subflows multiplexed on one CPU
  package (MPTCP over one socket's worth of CPU),
* **subflows-spread** — k parallel subflows pinned to k packages
  (the worst case [59] warns about: every subflow keeps a core complex
  awake for the whole transfer).

Expected shape: single <= shared < spread, with the spread penalty
growing with k — the per-package idle floor is the dominant cost, the
same concavity economics as the paper's Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.figures.arms import Arms, run_arms
from repro.harness.experiment import FlowSpec, Scenario
from repro.units import to_msec

#: the three placements, in table order
PLACEMENTS = ("single", "subflows-shared", "subflows-spread")


@dataclass
class MptcpResult:
    """One arm per subflow placement."""

    arms: Arms
    subflows: int
    total_bytes: int

    def spread_penalty(self) -> float:
        """Extra energy of per-package subflows vs the single flow."""
        single = self.arms["single"].mean_energy_j
        return (self.arms["subflows-spread"].mean_energy_j - single) / single

    def format_table(self) -> str:
        rows = [
            (
                name,
                self.arms[name].mean_energy_j,
                self.arms[name].mean_power_w,
                to_msec(self.arms[name].mean_duration_s),
            )
            for name in PLACEMENTS
        ]
        return format_table(
            ["placement", "energy (J)", "power (W)", "duration (ms)"], rows
        )


def run_mptcp_comparison(
    total_bytes: int = 20_000_000,
    subflows: int = 4,
    cca: str = "cubic",
    seed: int = 0,
) -> MptcpResult:
    """Compare single-flow vs k-subflow placements for one payload."""

    def scenario(placement: str) -> Scenario:
        if placement == "single":
            flows, packages = [FlowSpec(total_bytes, cca=cca)], 1
        else:
            per_subflow = total_bytes // subflows
            flows = [FlowSpec(per_subflow, cca=cca) for _ in range(subflows)]
            # shared: every subflow on one package; spread: one each
            packages = subflows if placement == "subflows-spread" else 1
        return Scenario(
            "mptcp-" + placement.replace("subflows-", ""),
            flows=flows,
            packages=packages,
        )

    return MptcpResult(
        run_arms(scenario, PLACEMENTS, seed, "mptcp placements"),
        subflows=subflows,
        total_bytes=total_bytes,
    )
