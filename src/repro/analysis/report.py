"""Markdown experiment-report generation.

``greenenvy report`` runs a compact version of every reproduction
pipeline and renders one self-contained markdown document — the
regenerable core of EXPERIMENTS.md. Each section pairs the paper's
claim with the measured value so drift is visible at a glance.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.stats import bootstrap_ci, mean
from repro.units import MILLION


@dataclass
class ClaimRow:
    """One paper-claim-vs-measured comparison."""

    claim: str
    paper: str
    measured: str
    ok: bool

    def render(self) -> str:
        mark = "✓" if self.ok else "✗"
        return f"| {self.claim} | {self.paper} | {self.measured} | {mark} |"


@dataclass
class ReportSection:
    """One figure/experiment's section."""

    title: str
    rows: List[ClaimRow] = field(default_factory=list)
    preformatted: Optional[str] = None

    def add(self, claim: str, paper: str, measured: str, ok: bool) -> None:
        self.rows.append(ClaimRow(claim, paper, measured, ok))

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def render(self) -> str:
        out = io.StringIO()
        out.write(f"## {self.title}\n\n")
        if self.rows:
            out.write("| claim | paper | measured | ok |\n")
            out.write("|---|---|---|---|\n")
            for row in self.rows:
                out.write(row.render() + "\n")
            out.write("\n")
        if self.preformatted:
            out.write("```\n")
            out.write(self.preformatted.rstrip("\n") + "\n")
            out.write("```\n\n")
        return out.getvalue()


@dataclass
class Report:
    """A complete reproduction report."""

    title: str
    sections: List[ReportSection] = field(default_factory=list)

    def section(self, title: str) -> ReportSection:
        sec = ReportSection(title)
        self.sections.append(sec)
        return sec

    @property
    def claims_total(self) -> int:
        return sum(len(s.rows) for s in self.sections)

    @property
    def claims_ok(self) -> int:
        return sum(1 for s in self.sections for r in s.rows if r.ok)

    def render(self) -> str:
        out = io.StringIO()
        out.write(f"# {self.title}\n\n")
        out.write(
            f"**{self.claims_ok}/{self.claims_total} paper claims "
            f"reproduced.**\n\n"
        )
        for sec in self.sections:
            out.write(sec.render())
        return out.getvalue()


def format_mean_ci(values: List[float], unit: str = "") -> str:
    """Render ``mean [lo, hi]`` with a bootstrap CI."""
    lo, hi = bootstrap_ci(values)
    suffix = f" {unit}" if unit else ""
    return f"{mean(values):.3f} [{lo:.3f}, {hi:.3f}]{suffix}"


def quick_report(
    transfer_bytes: int = 8_000_000,
    repetitions: int = 2,
    seed: int = 0,
) -> Report:
    """Run a compact end-to-end reproduction and build the report.

    Uses reduced sizes so the whole thing finishes in about a minute;
    the benchmark suite is the full-fidelity path.
    """
    from repro.core.savings import DatacenterCostModel
    from repro.core.theorem import worst_allocation_is_fair
    from repro.energy.power_model import PowerModel
    from repro.figures.fig1 import run_fig1
    from repro.figures.srpt import run_srpt_comparison
    from repro.harness.experiment import FlowSpec, Scenario
    from repro.harness.runner import run_repeated

    report = Report(
        title="Green With Envy — reproduction report (quick mode)"
    )

    # -- Theorem 1 -------------------------------------------------------
    sec = report.section("Theorem 1: fair share is the most power-hungry")
    model = PowerModel()
    holds = worst_allocation_is_fair(
        model.smooth_sending_power_w, 10.0, n=2, trials=500, seed=seed
    )
    sec.add(
        "no allocation beats the fair share's power",
        "theorem (strict concavity)",
        "holds over 500 random allocations" if holds else "violated",
        holds,
    )

    # -- Fig. 1 ------------------------------------------------------------
    sec = report.section("Figure 1: unfairness saves energy")
    fig1 = run_fig1(
        transfer_bytes=transfer_bytes,
        fractions=(0.2, 0.5, 0.8),
        repetitions=repetitions,
        base_seed=seed,
    )
    fair_worst = all(
        p.mean_energy_j <= fig1.fair_point.mean_energy_j * 1.001
        for p in fig1.points
    )
    sec.add(
        "fair allocation is the most expensive",
        "yes",
        "yes" if fair_worst else "no",
        fair_worst,
    )
    fsti = fig1.savings_vs_fair_percent(fig1.fsti_point)
    sec.add(
        "full-speed-then-idle saving",
        "~16%",
        f"{fsti:.1f}%",
        12.0 <= fsti <= 20.0,
    )
    sec.preformatted = fig1.format_table()

    # -- baseline / CCA comparison ------------------------------------------
    sec = report.section("§4.3: congestion control beats no-CC")
    energies = {}
    for cca in ("cubic", "baseline", "bbr2", "bbr"):
        result = run_repeated(
            Scenario(
                f"report-{cca}", flows=[FlowSpec(transfer_bytes, cca=cca)],
                packages=1,
            ),
            repetitions=repetitions,
            base_seed=seed,
        )
        energies[cca] = result.mean_energy_j
    cubic_saves = (energies["baseline"] - energies["cubic"]) / energies[
        "baseline"
    ]
    sec.add(
        "cubic saves energy vs the constant-cwnd baseline",
        "8.2-14.2%",
        f"{100 * cubic_saves:.1f}%",
        cubic_saves > 0.05,
    )
    bbr2_gap = (energies["bbr2"] - energies["bbr"]) / energies["bbr"]
    sec.add(
        "BBR2 (alpha) energy overhead vs BBR",
        "~40%",
        f"{100 * bbr2_gap:.0f}%",
        0.15 <= bbr2_gap <= 0.7,
    )

    # -- §4.2 dollars ------------------------------------------------------
    sec = report.section("§4.2: dollars at datacenter scale")
    dollars = DatacenterCostModel().annual_savings_usd(0.01)
    sec.add(
        "1% fleet-wide saving",
        "~$10M/year",
        f"${dollars / MILLION:.0f}M/year",
        abs(dollars - 10 * MILLION) < MILLION,
    )

    # -- §5 SRPT ----------------------------------------------------------
    sec = report.section("§5: SRPT transports are green and fast")
    srpt = run_srpt_comparison(
        batch=(transfer_bytes, transfer_bytes // 2, transfer_bytes // 4),
        seed=seed,
    )
    saving = srpt.arms.savings_percent("srpt")
    speedup = srpt.arms.fct_speedup("srpt")
    sec.add(
        "pFabric-style SRPT saves energy vs fair",
        "predicted by Theorem 1",
        f"{saving:.1f}%",
        saving > 3.0,
    )
    sec.add(
        "and improves mean FCT",
        "SRPT-optimal",
        f"{speedup:.2f}x",
        speedup > 1.1,
    )
    sec.preformatted = srpt.format_table()

    return report
