"""§5 extension: per-mechanism energy attribution for each CCA.

The paper: "our results in §4.3 does not necessarily expose the
underlying reason for these differences. We expect such differences to
stem from unique mechanisms used for each algorithm such as maintained
flow state, packet pacing, cwnd calculation arithmetic, and so on. We
plan to investigate the energy consequences of such mechanisms in
future work."

This experiment runs one transfer per CCA and reports where every
joule of its measurement's ``energy_components_j`` went: the idle
floor, the concave network term, the small-packet excess, the CC
arithmetic, the retransmission churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.tables import format_table
from repro.energy.cpu import DEFAULT_SAMPLE_INTERVAL_S
from repro.figures.arms import run_arms
from repro.harness.experiment import FlowSpec, Scenario

#: the display subset (idle/load folded into "idle floor")
REPORT_COMPONENTS = (
    "idle",
    "network",
    "packet_excess",
    "cc_compute",
    "retransmissions",
)


@dataclass
class MechanismRow:
    """One CCA's energy, attributed."""

    cca: str
    total_j: float
    components_j: Dict[str, float]


@dataclass
class MechanismResult:
    """The full per-CCA attribution table."""

    rows: List[MechanismRow]
    transfer_bytes: int

    def format_table(self) -> str:
        headers = ["cca", "total (J)"] + [f"{c} (J)" for c in REPORT_COMPONENTS]
        table_rows = []
        for row in sorted(self.rows, key=lambda r: r.total_j):
            cells: List[object] = [row.cca, row.total_j]
            cells += [row.components_j.get(c, 0.0) for c in REPORT_COMPONENTS]
            table_rows.append(tuple(cells))
        return format_table(headers, table_rows)


def run_mechanism_breakdown(
    ccas: Sequence[str] = ("cubic", "bbr", "bbr2", "dctcp", "baseline"),
    transfer_bytes: int = 20_000_000,
) -> MechanismResult:
    """Measure the per-mechanism energy attribution for each CCA: one
    noise-free, jitter-free run per CCA on one sender package."""

    def scenario(cca: str) -> Scenario:
        return Scenario(
            f"mechanisms-{cca}",
            flows=[FlowSpec(transfer_bytes, cca=cca)],
            mtu_bytes=9000,
            packages=1,
            power_noise_sigma=0.0,
            start_jitter_s=0.0,
            sample_interval_s=DEFAULT_SAMPLE_INTERVAL_S,
            int_telemetry=(cca == "hpcc"),
            time_limit_s=120.0,
        )

    arms = run_arms(scenario, ccas, 0, "mechanisms")
    rows: List[MechanismRow] = []
    for cca in ccas:
        run = arms[cca].runs[0]
        # Fold load + floor adjustment into the idle floor for display.
        breakdown = dict(run.energy_components_j)
        breakdown["idle"] += breakdown.pop("background_load", 0.0)
        breakdown["idle"] += breakdown.pop("floor_adjustment", 0.0)
        rows.append(
            MechanismRow(cca=cca, total_j=run.energy_j, components_j=breakdown)
        )
    return MechanismResult(rows=rows, transfer_bytes=transfer_bytes)
