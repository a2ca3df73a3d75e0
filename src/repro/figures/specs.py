"""The figure commands as data: one :class:`Figure` row per subcommand.

``repro.cli`` builds a ``greenenvy`` subcommand from every row of
:data:`FIGURES` and runs each through one handler: call the row's
driver with the keywords its parameters feed, print its output (tables
and paper claims), and point at the trace if one was written. A paper
value a command prints lives in one :class:`Claim` of this module and
nowhere else: the figure commands' claims in :data:`FIGURES`,
``greenenvy report``'s in :data:`REPORT` and ``greenenvy validate``'s
in :data:`CALIBRATION`. Every command exits 1 when a claim with a
tolerance fails.

Nothing here imports a figure module or what a claim measures, so
building the parser stays cheap: a driver is a dotted path imported
when its command runs, and a render or a measure imports what it reads
at call time (the driver has loaded it by then).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import import_module
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import AnalysisError

Render = Callable[[Any], str]


@dataclass(frozen=True)
class Param:
    """One option of a figure command and the driver keyword it feeds.

    ``keyword`` is ``None`` for an option the driver does not take: the
    launch options (the CLI reads them), an ``export`` and the sizing
    flags a command accepts without using. ``convert`` maps a parsed
    value to the keyword's; a ``None`` is not passed, so the driver's
    default applies. ``export(result, value)`` runs after the driver
    when the option is given and returns the line to print.
    """

    flag: str
    keyword: Optional[str] = None
    type: Optional[Callable[[str], Any]] = None
    default: Any = None
    choices: Optional[Tuple[str, ...]] = None
    help: Optional[str] = None
    metavar: Optional[str] = None
    aliases: Tuple[str, ...] = ()
    dest: Optional[str] = None
    action: Optional[str] = None
    convert: Optional[Callable[[Any], Any]] = None
    export: Optional[Callable[[Any, Any], str]] = None

    @property
    def name(self) -> str:
        """The ``argparse`` namespace attribute."""
        return self.dest or self.flag.lstrip("-").replace("-", "_")

    def add_to(self, parser: Any) -> None:
        parser.add_argument(
            self.flag, *self.aliases, type=self.type, default=self.default,
            choices=self.choices, help=self.help, metavar=self.metavar,
            dest=self.dest, action=self.action,
        )


@dataclass(frozen=True)
class Claim:
    """A measured number printed beside the paper's value (``paper``,
    as printed; ``None`` when the paper gives none) and the paper
    section that makes the claim (DESIGN.md §1 indexes them).

    ``holds`` is the claim's tolerance, a predicate on the measured
    value; ``None`` makes the claim print-only."""

    label: str
    measure: Callable[[Any], Any]
    format: Callable[[Any], str]
    paper: Optional[str]
    section: str
    holds: Optional[Callable[[Any], bool]] = None

    def check(self, result: Any) -> Tuple[str, bool]:
        """The value as printed and whether the claim holds. ``n/a``
        stands for a value the data cannot give (a constant series has
        no correlation); it fails a claim with a tolerance."""
        try:
            value = self.measure(result)
        except AnalysisError:
            return "n/a", self.holds is None
        return self.format(value), self.holds is None or self.holds(value)


@dataclass(frozen=True)
class Figure:
    """One figure subcommand. ``output`` is its printed paragraphs, in
    order, a blank line apart: a render's text, or a tuple of claims
    one a line."""

    name: str
    help: str
    driver: str
    params: Tuple[Param, ...]
    output: Tuple[Union[Render, Tuple[Claim, ...]], ...]

    @property
    def launched(self) -> bool:
        """Whether the driver takes the launch keywords (``--jobs`` ...)."""
        return PARALLEL[0] in self.params

    def run(self, args: Any, **launch: Any) -> Any:
        """Import the driver and call it with the value ``args`` gives
        each parameter's keyword."""
        keywords: Dict[str, Any] = {}
        for param in self.params:
            value = getattr(args, param.name)
            if param.convert is not None and value is not None:
                value = param.convert(value)
            if param.keyword is not None and value is not None:
                keywords[param.keyword] = value
        module, _, function = self.driver.rpartition(".")
        return getattr(import_module(module), function)(**keywords, **launch)

    def render(self, result: Any) -> Tuple[str, List[bool]]:
        """The printed paragraphs, and whether each claim holds."""
        paragraphs: List[str] = []
        verdicts: List[bool] = []
        for part in self.output:
            if isinstance(part, tuple):
                checked = [(claim, *claim.check(result)) for claim in part]
                verdicts += [holds for *_, holds in checked]
                paragraphs.append("\n".join(
                    f"{claim.label}: {value}"
                    + (f" (paper: {claim.paper})" if claim.paper else "")
                    for claim, value, _ in checked
                ))
            else:
                paragraphs.append(part(result))
        return "\n\n".join(paragraphs), verdicts


def sizing(
    default_bytes: int,
    size: Optional[str] = None,
    reps: Optional[str] = None,
    seed: Optional[str] = None,
) -> Tuple[Param, ...]:
    """``--bytes/--reps/--seed``, feeding the named driver keywords."""
    return (
        Param("--bytes", size, int, default_bytes,
              help="per-flow transfer size in bytes"),
        Param("--reps", reps, int, 3, help="repetitions per point"),
        Param("--seed", seed, int, 0, help="base RNG seed"),
    )


#: the launch options: results are identical whatever their values
PARALLEL = (
    Param("--jobs", None, int, aliases=("-j",),
          help="worker processes for the simulations (default: serial; "
          "results are bit-identical either way)"),
    Param("--cache-dir",
          help="content-addressed result cache directory; reruns with "
          "unchanged parameters replay stored measurements"),
    Param("--trace", metavar="DIR",
          help="write a run journal (journal.jsonl) and metrics exports "
          "into DIR; inspect with 'greenenvy obs report DIR'. Tracing "
          "never changes results"),
)

ABORT_ON_DRIFT = Param(
    "--abort-on-drift", metavar="BASELINE", dest="abort_on_drift",
    help="cancel the sweep early (exit 3) as soon as a scenario that "
    "finished all its repetitions drifts from this baseline JSON "
    "('greenenvy obs snapshot')",
)


def _policy_names(values: Sequence[str]) -> Optional[List[str]]:
    """Canonical, deduplicated policy names from ``--policy`` flags.

    ``all`` expands to the whole registry; retired spellings resolve
    through the aliases (with their deprecation warning). ``None`` when
    nothing is named, so each figure keeps its own default arms.
    """
    from repro.sched import policy_names, resolve_policy_name

    names: List[str] = []
    for value in values:
        for part in value.split(","):
            part = part.strip()
            if part.lower() == "all":
                names.extend(policy_names())
            elif part:
                names.append(resolve_policy_name(part))
    return list(dict.fromkeys(names)) or None


def policy(default: str) -> Param:
    """The repeatable ``--policy NAME``; ``default`` says what runs
    without it."""
    return Param(
        "--policy", "policies", action="append", dest="policies",
        metavar="NAME", convert=_policy_names,
        help="scheduling policy to run (repeatable; comma lists and "
        f"'all' also work; default: {default}; see 'greenenvy policies')",
    )


def _csv(spec: str) -> List[str]:
    return [part.strip() for part in spec.split(",") if part.strip()]


def _byte_sizes(spec: str) -> Optional[Tuple[int, ...]]:
    """``20e6,10e6`` -> ``(20000000, 10000000)``; ``None`` for ``""``."""
    return tuple(int(float(size)) for size in _csv(spec)) if spec else None


def _table(result: Any) -> str:
    return result.format_table()


def _fig3(result: Any) -> str:
    from repro.units import to_gbps

    lines: List[str] = []
    for panel in result.arms:
        lines += ["", f"== {panel} =="]
        for flow, series in result.panel(panel):
            samples = " ".join(f"{to_gbps(v):.1f}" for v in series.values)
            lines.append(f"flow {flow} (Gb/s per ms): {samples}")
        means = ", ".join(f"{m:.2f}" for m in result.mean_throughputs_gbps(panel))
        lines.append(f"window-average throughputs: {means} Gb/s")
    return "\n".join(lines)


def _fig4(result: Any) -> str:
    return "\n".join([result.format_table()] + [
        f"full-speed-then-idle savings at load {100 * load:.0f}%: "
        f"{result.savings_fsti_vs_fair_percent(load):.2f}%"
        for load in result.loads()
    ])


def _save_cells(grid: Any, path: str) -> str:
    from repro.analysis.export import save_json

    save_json([cell.result for cell in grid.cells], path)
    return f"wrote raw measurements to {path}\n"


def _srpt(result: Any) -> str:
    arms = result.arms
    return "\n\n".join([result.format_table()] + [
        f"{name}: {arms.savings_percent(name):.1f}% energy saving, "
        f"{arms.fct_speedup(name):.2f}x mean FCT"
        for name in sorted(set(arms) - {"fair"})
    ])


def _incast(result: Any) -> str:
    return (
        f"energy growth {result.points[0].fan_in} -> "
        f"{result.points[-1].fan_in} senders: x{result.energy_growth():.2f}"
    )


def _workload(result: Any) -> str:
    workload, arms = result.workload, result.arms
    paragraphs = [
        f"{workload.name}: {len(workload.flows)} flows, "
        f"offered load {workload.offered_load:.2f}",
        result.format_table(),
    ]
    if "fair" in arms:
        paragraphs += [
            f"{name}: {arms.fct_speedup(name):.2f}x mean FCT "
            f"at {result.energy_ratio_vs_fair(name):.3f}x the energy"
            for name in sorted(set(arms) - {"fair"})
        ]
    return "\n\n".join(paragraphs)


def _fabric(result: Any) -> str:
    from repro.units import MILLION

    # The fair arms score exactly 0% against themselves, so the best
    # (cca, policy) cell is fair only when every other arm costs energy.
    cca, policy, saving = max(
        (
            (cca, name, arms.savings_percent(name))
            for cca, arms in result.arms.items()
            for name in result.policies
        ),
        key=lambda row: row[2],
    )
    value = result.annualized_value_usd(cca, policy) / MILLION
    return (
        f"best fleet saving: {saving:.1f}% ({cca}, {policy}), worth "
        f"${value:.1f}M/year at datacenter scale"
    )


def _pareto(result: Any) -> str:
    from repro.figures.pareto import WORKLOADS

    return "\n\n".join([result.format_table()] + [
        f"{workload} frontier (fastest -> greenest): "
        + " -> ".join(result.frontier(workload))
        for workload in WORKLOADS
    ])


def _mptcp(result: Any) -> str:
    return (
        "spreading subflows across packages costs "
        f"+{100 * result.spread_penalty():.0f}%"
    )


FIGURES: Tuple[Figure, ...] = (
    Figure(
        "fig1", "unfairness vs energy savings sweep",
        "repro.figures.fig1.run_fig1",
        (*sizing(12_500_000, "transfer_bytes", "repetitions", "base_seed"),
         *PARALLEL, ABORT_ON_DRIFT),
        (_table, (Claim("max savings vs fair",
                        lambda result: result.max_savings_percent,
                        "{:.1f}%".format, "~16%", "§4.1, Fig. 1"),)),
    ),
    Figure(
        "fig2", "power vs throughput curves", "repro.figures.fig2.run_fig2",
        (*sizing(0, None, "repetitions", "base_seed"), *PARALLEL),
        (_table,),
    ),
    Figure(
        "fig3", "per-policy throughput timeseries (one panel each)",
        "repro.figures.fig3.run_fig3",
        (*sizing(12_500_000, "transfer_bytes", None, "seed"),
         policy("fair, serialized")),
        (_fig3,),
    ),
    Figure(
        "fig4", "loaded-host power curves", "repro.figures.fig4.run_fig4",
        (*sizing(0, None, "repetitions", "base_seed"), *PARALLEL),
        (_fig4,),
    ),
    Figure(
        "grid", "CCA x MTU grid (figures 5-8)",
        "repro.figures.grid.run_cca_mtu_grid",
        (*sizing(25_000_000, "transfer_bytes", "repetitions", "base_seed"),
         *PARALLEL,
         Param("--json", help="also dump raw measurements to this file",
               export=_save_cells)),
        (
            lambda grid: f"== Figure 5: energy ==\n{grid.energy_table()}",
            (Claim("BBR2 vs BBR energy overhead @9000",
                   lambda grid: 100 * grid.bbr2_vs_bbr_fraction(9000),
                   "{:.0f}%".format, "~40%", "§4.3, Fig. 5"),),
            lambda grid: f"== Figure 6: power ==\n{grid.power_table()}",
            (Claim("corr(energy, power) @1500",
                   lambda grid: grid.energy_power_correlation(1500),
                   "{:.2f}".format, "-0.8", "§4.3, Fig. 6"),),
            (Claim("corr(energy, fct)",
                   lambda grid: grid.energy_fct_correlation(),
                   "{:.2f}".format, None, "§4.5, Fig. 7"),
             Claim("corr(energy, retx) excl bbr2",
                   lambda grid: grid.retx_energy_correlation(),
                   "{:.2f}".format, "0.47", "§4.5, Fig. 8")),
        ),
    ),
    Figure(
        "srpt", "SRPT transport energy (§5 extension)",
        "repro.figures.srpt.run_srpt_comparison",
        (*sizing(0, None, None, "seed"), policy("fair, srpt, serialized")),
        (_srpt,),
    ),
    Figure(
        "incast", "incast fan-in energy (§5 extension)",
        "repro.figures.incast.run_incast_sweep",
        sizing(20_000_000, "aggregate_bytes"),
        (_table, _incast),
    ),
    Figure(
        "loadbalance", "link imbalance under two switch-power models",
        "repro.figures.load_balance.run_hardware_comparison", (),
        (lambda pair: pair[0].format_table(),
         lambda pair: pair[1].format_table()),
    ),
    Figure(
        "workload", "production workloads: per-policy energy and FCT",
        "repro.figures.workload_energy.run_workload_energy",
        (*sizing(0, None, None, "seed"),
         Param("--distribution", "distribution", default="web-search",
               choices=("web-search", "data-mining")),
         Param("--load", "target_load", float, 0.5),
         policy("fair, srpt")),
        (_workload,),
    ),
    Figure(
        "fabric", "leaf-spine fleet energy at 1k+ flows, per scheduling "
        "policy and datacenter CCA",
        "repro.figures.fabric.run_fabric_figure",
        (Param("--flows", "n_flows", int, 1000,
               help="concurrent flows in the generated workload"),
         Param("--ccas", "ccas", default="dctcp,dcqcn", convert=_csv,
               help="comma-separated datacenter CCAs (dctcp, dcqcn, hpcc, swift)"),
         Param("--leaves", "leaves", int, 8, help="leaf (ToR) switches"),
         Param("--spines", "spines", int, 2, help="spine switches"),
         Param("--hosts-per-leaf", "hosts_per_leaf", int, 8,
               help="hosts per rack"),
         Param("--topology", "topology", default="leaf-spine",
               choices=("leaf-spine", "fat-tree")),
         Param("--load", "target_load", float, 0.3,
               help="target offered load as a fraction of host capacity"),
         Param("--mix", "mix", default="datacenter",
               help="traffic mix (datacenter, rpc-heavy, or a single distribution)"),
         Param("--switch-power", "switch_power", default="today",
               choices=("today", "rate-adaptive"),
               help="switch power hardware model"),
         Param("--reps", "repetitions", int, 1, help="repetitions per arm"),
         Param("--seed", "base_seed", int, 0, help="base RNG seed"),
         policy("fair, serialized"), *PARALLEL, ABORT_ON_DRIFT),
        (_table, _fabric),
    ),
    Figure(
        "pareto", "FCT-vs-energy Pareto frontier across scheduling policies "
        "on a link batch and a leaf-spine workload",
        "repro.figures.pareto.run_pareto",
        (policy("every registered policy"),
         Param("--link-batch", "link_batch", metavar="BYTES,BYTES,...",
               convert=_byte_sizes,
               help="comma-separated flow sizes for the link workload "
               "(default: 20M,10M,5M,2.5M)"),
         Param("--link-cca", "link_cca", default="cubic",
               help="CCA for the link workload"),
         Param("--deadline-slack", "deadline_slack", float, 4.0,
               help="per-flow deadline as a multiple of line-rate duration"),
         Param("--fabric-cca", "fabric_cca", default="dctcp",
               help="CCA for the fabric workload"),
         Param("--flows", "n_flows", int, 200, help="fabric workload flow count"),
         Param("--mix", "mix", default="rpc",
               help="fabric traffic mix (datacenter, rpc-heavy, or a distribution)"),
         Param("--load", "target_load", float, 0.3,
               help="fabric target offered load as a fraction of host capacity"),
         Param("--leaves", "leaves", int, 4, help="leaf (ToR) switches"),
         Param("--spines", "spines", int, 2, help="spine switches"),
         Param("--hosts-per-leaf", "hosts_per_leaf", int, 4,
               help="hosts per rack"),
         Param("--reps", "repetitions", int, 1, help="repetitions per arm"),
         Param("--seed", "base_seed", int, 0, help="base RNG seed"),
         *PARALLEL, ABORT_ON_DRIFT),
        (_pareto,),
    ),
    Figure(
        "mptcp", "subflow multiplexing energy ([59]'s MPTCP findings)",
        "repro.figures.mptcp.run_mptcp_comparison",
        sizing(20_000_000, "total_bytes", None, "seed"),
        (_table, _mptcp),
    ),
    Figure(
        "mechanisms", "per-mechanism energy attribution for each CCA (§5)",
        "repro.figures.mechanisms.run_mechanism_breakdown",
        sizing(20_000_000, "transfer_bytes"),
        (_table,),
    ),
)


def _verdict(yes: str, no: str, holds: Callable[[Any], bool]) -> Dict[str, Any]:
    """The ``format`` and ``holds`` of a claim printed as ``yes`` or
    ``no``, whichever its tolerance says."""
    return dict(format=lambda value: yes if holds(value) else no, holds=holds)


def _headline_musd(_: Any) -> float:
    """The paper's 1 % fleet-wide saving at datacenter scale, $M/year."""
    from repro.core.savings import paper_headline_savings
    from repro.units import MILLION

    return paper_headline_savings() / MILLION


def run_report(transfer_bytes: int, repetitions: int, seed: int) -> SimpleNamespace:
    """The measurements :data:`REPORT` reads, at sizes reduced so the
    report finishes in about a minute (the benchmarks are the
    full-fidelity path)."""
    from repro.core.theorem import worst_allocation_is_fair
    from repro.energy.power_model import PowerModel
    from repro.figures.fig1 import run_fig1
    from repro.figures.srpt import run_srpt_comparison
    from repro.harness.experiment import FlowSpec, Scenario
    from repro.harness.runner import run_repeated

    return SimpleNamespace(
        theorem=worst_allocation_is_fair(
            PowerModel().smooth_sending_power_w, 10.0, n=2, trials=500, seed=seed
        ),
        fig1=run_fig1(
            transfer_bytes=transfer_bytes, fractions=(0.2, 0.5, 0.8),
            repetitions=repetitions, base_seed=seed,
        ),
        energy_j={
            cca: run_repeated(
                Scenario(f"report-{cca}",
                         flows=[FlowSpec(transfer_bytes, cca=cca)], packages=1),
                repetitions=repetitions, base_seed=seed,
            ).mean_energy_j
            for cca in ("cubic", "baseline", "bbr2", "bbr")
        },
        srpt=run_srpt_comparison(
            batch=(transfer_bytes, transfer_bytes // 2, transfer_bytes // 4),
            seed=seed,
        ),
    )


def _saving_percent(energy_j: Dict[str, float], cca: str, over: str) -> float:
    """How much less energy ``cca`` took than ``over``, in percent."""
    return 100 * ((energy_j[over] - energy_j[cca]) / energy_j[over])


#: a report section: its title, its claims and the table printed below them
Section = Tuple[str, Tuple[Claim, ...], Optional[Render]]

#: ``greenenvy report``'s sections; the claims read :func:`run_report`'s result
REPORT: Tuple[Section, ...] = (
    ("Theorem 1: fair share is the most power-hungry", (
        Claim("no allocation beats the fair share's power",
              lambda m: m.theorem,
              paper="theorem (strict concavity)", section="§4.1, Theorem 1",
              **_verdict("holds over 500 random allocations", "violated", bool)),
    ), None),
    ("Figure 1: unfairness saves energy", (
        Claim("fair allocation is the most expensive",
              lambda m: max(p.mean_energy_j for p in m.fig1.points)
              / m.fig1.fair_point.mean_energy_j,
              paper="yes", section="§4.1, Fig. 1",
              **_verdict("yes", "no", lambda ratio: ratio <= 1.001)),
        Claim("full-speed-then-idle saving",
              lambda m: m.fig1.savings_vs_fair_percent(m.fig1.fsti_point),
              "{:.1f}%".format, "~16%", "§4.1, Fig. 1",
              lambda percent: 12.0 <= percent <= 20.0),
    ), lambda m: m.fig1.format_table()),
    ("§4.3: congestion control beats no-CC", (
        Claim("cubic saves energy vs the constant-cwnd baseline",
              lambda m: _saving_percent(m.energy_j, "cubic", "baseline"),
              "{:.1f}%".format, "8.2-14.2%", "§4.3",
              lambda percent: percent > 5.0),
        Claim("BBR2 (alpha) energy overhead vs BBR",
              lambda m: -_saving_percent(m.energy_j, "bbr2", "bbr"),
              "{:.0f}%".format, "~40%", "§4.3, Fig. 5",
              lambda percent: 15.0 <= percent <= 70.0),
    ), None),
    ("§4.2: dollars at datacenter scale", (
        Claim("1% fleet-wide saving", _headline_musd, "${:.0f}M/year".format,
              "~$10M/year", "§4.2", lambda musd: abs(musd - 10.0) < 1.0),
    ), None),
    ("§5: SRPT transports are green and fast", (
        Claim("pFabric-style SRPT saves energy vs fair",
              lambda m: m.srpt.arms.savings_percent("srpt"),
              "{:.1f}%".format, "predicted by Theorem 1", "§5",
              lambda percent: percent > 3.0),
        Claim("and improves mean FCT",
              lambda m: m.srpt.arms.fct_speedup("srpt"),
              "{:.2f}x".format, "SRPT-optimal", "§5",
              lambda speedup: speedup > 1.1),
    ), lambda m: m.srpt.format_table()),
)


def report_markdown(
    measured: Any, sections: Sequence[Section] = REPORT
) -> Tuple[str, List[bool]]:
    """``greenenvy report``'s markdown, and whether each claim holds."""
    body: List[str] = []
    verdicts: List[bool] = []
    for title, claims, table in sections:
        checked = [(claim, *claim.check(measured)) for claim in claims]
        verdicts += [holds for *_, holds in checked]
        body += [f"## {title}", "", "| claim | paper | measured | ok |",
                 "|---|---|---|---|"]
        body += [f"| {claim.label} | {claim.paper} | {value} | "
                 f"{'✓' if holds else '✗'} |" for claim, value, holds in checked]
        body.append("")
        if table is not None:
            body += ["```", table(measured).rstrip("\n"), "```", ""]
    return "\n".join([
        "# Green With Envy — reproduction report (quick mode)", "",
        f"**{sum(verdicts)}/{len(verdicts)} paper claims reproduced.**", "",
        *body,
    ]) + "\n", verdicts


def _concave(model: Any) -> bool:
    from repro.core.theorem import is_strictly_concave_on

    return is_strictly_concave_on(model.smooth_sending_power_w, 0.0, 10.0)


def _fsti_saving(model: Any) -> float:
    from repro.core.theorem import theorem1_savings

    return theorem1_savings(model.smooth_sending_power_w, 10.0, [10.0, 0.0])


def _close(target: float, rel: float) -> Callable[[float], bool]:
    return lambda value: math.isclose(value, target, rel_tol=rel)


def _increase(model: Any, lo_gbps: float, hi_gbps: float) -> float:
    """The fractional power increase from ``lo_gbps`` to ``hi_gbps``."""
    p = model.smooth_sending_power_w
    return (p(hi_gbps) - p(lo_gbps)) / p(lo_gbps)


def _loaded_saving(model: Any, load: float) -> float:
    """Full-speed-then-idle's fractional saving over fair at 5 Gb/s on
    a host ``load`` busy."""
    fair = model.smooth_sending_power_w(5.0, load)
    return (fair - model.full_speed_then_idle_power_w(5.0, load=load)) / fair


def _anchor(label: str, gbps: float, watts: float, note: str = "") -> Claim:
    """A point the paper prints on the power curve, checked against
    the printed number, not the constant the model is fitted from."""
    return Claim(label, lambda model: model.smooth_sending_power_w(gbps),
                 "{:.2f} W".format, f"{watts} W{note}", "§4.1",
                 _close(watts, 1e-6))


#: ``greenenvy validate``'s checks of the calibrated power model
#: against the paper's printed numbers, in dependency order; their
#: measures take a :class:`~repro.energy.power_model.PowerModel`
CALIBRATION: Tuple[Claim, ...] = (
    _anchor("idle power anchor", 0.0, 21.49, " (paper §4.1)"),
    _anchor("half-rate anchor", 5.0, 34.23),
    _anchor("line-rate anchor", 10.0, 35.82),
    Claim("strict concavity (Theorem 1 premise)", _concave,
          paper="concave on [0, 10] Gb/s", section="§4.1, Theorem 1",
          **_verdict("holds", "VIOLATED", bool)),
    Claim("full-speed-then-idle saving", _fsti_saving, "{:.1%}".format,
          "16.3% (paper §4.1 arithmetic)", "§4.1", _close(0.163, 0.05)),
    Claim("first 5 Gb/s power increase",
          lambda model: _increase(model, 0.0, 5.0), "{:.0%}".format,
          "~60% (paper: 12.7 W on 21.49 W)", "§4.1",
          lambda fraction: 0.5 <= fraction <= 0.7),
    Claim("next 5 Gb/s power increase",
          lambda model: _increase(model, 5.0, 10.0), "{:.1%}".format,
          "~5% (paper: 1.6 W on 34.23 W)", "§4.1",
          lambda fraction: 0.02 <= fraction <= 0.08),
    Claim("savings at 25% load",
          lambda model: _loaded_saving(model, 0.25), "{:.2%}".format,
          "1.00% (paper §4.2)", "§4.2", _close(0.010, 0.4)),
    Claim("savings at 75% load",
          lambda model: _loaded_saving(model, 0.75), "{:.2%}".format,
          "0.17% (paper §4.2)", "§4.2", _close(0.0017, 0.4)),
    Claim("1% at datacenter scale", _headline_musd, "${:.1f}M/year".format,
          "$10M/year", "§4.2", _close(10.0, 0.01)),
)

