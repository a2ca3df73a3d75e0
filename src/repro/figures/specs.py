"""The figure commands as data: one :class:`Figure` row per subcommand.

``repro.cli`` builds a ``greenenvy`` subcommand from every row of
:data:`FIGURES` and runs each through one handler: call the row's
driver with the keywords its parameters feed, print its output (tables
and paper claims), and point at the trace if one was written. A paper
value a figure command prints lives in one :class:`Claim` of this
table and nowhere else.

Nothing here imports a figure module, so building the parser stays
cheap: a driver is a dotted path imported when its command runs, and a
render imports what it reads at call time (the driver has loaded it
by then).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
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
    section that makes the claim (DESIGN.md §1 indexes them)."""

    label: str
    measure: Callable[[Any], float]
    format: str
    paper: Optional[str]
    section: str

    def line(self, result: Any) -> str:
        """``label: value (paper: ...)``, with ``n/a`` for a value the
        data cannot give (a constant series has no correlation)."""
        try:
            value = self.format.format(self.measure(result))
        except AnalysisError:
            value = "n/a"
        paper = f" (paper: {self.paper})" if self.paper else ""
        return f"{self.label}: {value}{paper}"


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

    def render(self, result: Any) -> str:
        return "\n\n".join(
            "\n".join(claim.line(result) for claim in part)
            if isinstance(part, tuple) else part(result)
            for part in self.output
        )


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
                        "{:.1f}%", "~16%", "§4.1, Fig. 1"),)),
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
                   "{:.0f}%", "~40%", "§4.3, Fig. 5"),),
            lambda grid: f"== Figure 6: power ==\n{grid.power_table()}",
            (Claim("corr(energy, power) @1500",
                   lambda grid: grid.energy_power_correlation(1500),
                   "{:.2f}", "-0.8", "§4.3, Fig. 6"),),
            (Claim("corr(energy, fct)",
                   lambda grid: grid.energy_fct_correlation(),
                   "{:.2f}", None, "§4.5, Fig. 7"),
             Claim("corr(energy, retx) excl bbr2",
                   lambda grid: grid.retx_energy_correlation(),
                   "{:.2f}", "0.47", "§4.5, Fig. 8")),
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
