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

from dataclasses import dataclass
from importlib import import_module
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import AnalysisError, ExperimentError

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
        no correlation, a command's ``--policy`` left out the arm the
        claim reads); it fails a claim with a tolerance."""
        try:
            value = self.measure(result)
        except (AnalysisError, ExperimentError):
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
          help="record this run into DIR: its journal (journal.jsonl) and "
          "telemetry (telemetry.jsonl), replacing what an earlier run "
          "recorded there; inspect with 'greenenvy obs report DIR'. "
          "Tracing never changes results"),
)

ABORT_ON_DRIFT = Param(
    "--abort-on-drift", metavar="BASELINE", dest="abort_on_drift",
    help="cancel the sweep early (exit 3) as soon as a scenario that "
    "finished all its repetitions drifts from this baseline JSON "
    "('greenenvy obs snapshot')",
)


def _policy_names(values: Sequence[str]) -> Optional[List[str]]:
    """Canonical, deduplicated policy names from ``--policy`` flags.

    ``all`` expands to the whole registry. ``None`` when nothing is
    named, so each figure keeps its own default arms.
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


def _verdict(yes: str, no: str, holds: Callable[[Any], bool]) -> Dict[str, Any]:
    """The ``format`` and ``holds`` of a claim printed as ``yes`` or
    ``no``, whichever its tolerance says."""
    return dict(format=lambda value: yes if holds(value) else no, holds=holds)


def _close(target: float, rel: float) -> Callable[[float], bool]:
    """Within ``rel`` of ``target``, relative to the target."""
    return lambda value: abs(value - target) <= rel * abs(target)


def _increase(power: Callable[[float], float], lo_gbps: float, hi_gbps: float) -> float:
    """The fractional power increase from ``lo_gbps`` to ``hi_gbps``."""
    return (power(hi_gbps) - power(lo_gbps)) / power(lo_gbps)


def _fleet_musd(saving_fraction: float) -> float:
    """A fleet-wide saving at the paper's datacenter scale, $M/year."""
    from repro.core.savings import DatacenterCostModel
    from repro.units import MILLION

    return DatacenterCostModel().annual_savings_usd(saving_fraction) / MILLION


def _smooth_power(result: Any) -> Callable[[float], float]:
    """Fig. 2's smooth series as a function of throughput (Gb/s)."""
    return dict(result.smooth_curve()).__getitem__


def _fig2_rises(result: Any) -> bool:
    from repro.analysis.concavity import is_increasing

    return is_increasing(result.smooth_curve(), tol=0.3)


def _fig2_concave(result: Any) -> bool:
    from repro.analysis.concavity import is_concave

    # the slack covers measurement noise on the nearly flat tail; the
    # marginal power falls from 9+ W per Gb/s to under 0.5
    return is_concave(result.smooth_curve(), tol=0.5)


def _chord_below(result: Any) -> bool:
    """Whether burst-then-idle draws less than smooth sending at every
    interior throughput."""
    smooth = _smooth_power(result)
    return all(chord < smooth(gbps) for gbps, chord in result.chord_curve()
               if 0.5 <= gbps <= 9.5)


def _anchor(
    label: str, gbps: float, watts: float, rel_tol: float = 1e-6, note: str = "",
    curve: Callable[[Any], Callable[[float], float]] = (
        lambda model: model.smooth_sending_power_w),
) -> Claim:
    """A point the paper prints on the power curve, checked against
    the printed number, not the constant the model is fitted from: on
    the model's ``curve`` by default, on Fig. 2's with ``_smooth_power``."""
    return Claim(label, lambda measured: curve(measured)(gbps),
                 "{:.2f} W".format, f"{watts} W{note}", "§4.1",
                 _close(watts, rel_tol))


def _savings_fall(result: Any) -> bool:
    """Whether Fig. 4's full-speed-then-idle saving falls with every
    step up in load."""
    savings = [result.savings_fsti_vs_fair_percent(load) for load in result.loads()]
    return all(b < a for a, b in zip(savings, savings[1:]))


def _uplift_ratio(result: Any) -> float:
    """The 10 Gb/s power uplift over idle at 75% load, over the same at
    0% load: how much the loaded curve flattens."""
    def uplift(load: float) -> float:
        curve = {p.target_gbps: p.mean_power_w for p in result.curves[load]}
        return curve[10.0] - curve[0.0]

    return uplift(0.75) / uplift(0.0)


def _smallest_baseline_saving(grid: Any) -> float:
    """The smallest energy saving vs the no-CC baseline, in percent,
    over every CCA and MTU (BBR2, the alpha release, excepted)."""
    return min(100 * saving for mtu in grid.mtus()
               for cca, saving in grid.baseline_overhead_fraction(mtu).items()
               if cca != "bbr2")


def _bbr2_inverts(grid: Any) -> bool:
    """Whether BBR2 draws the least power and costs the most energy at
    MTU 1500 (the ordering Figs. 5 and 6 are sorted by)."""
    return (grid.cca_order_by_power(1500)[0] == "bbr2"
            == grid.cca_order_by_energy(1500)[-1])


def _cluster_ratio(axis: int) -> Callable[[Any], float]:
    """The MTU-1500 cluster's mean FCT (``axis`` 0) or energy (1) over
    the MTU >= 3000 cluster's (Fig. 7)."""
    def ratio(grid: Any) -> float:
        small, large = grid.fct_cluster_means()
        return small[axis] / large[axis]

    return ratio


def _baseline_retx_margin(grid: Any) -> float:
    """The baseline's fewest retransmissions at any MTU less the most
    any other CCA has at any MTU (Fig. 8's far right)."""
    def retx(cca: str) -> List[float]:
        return [grid.cell(cca, mtu).mean_retransmissions for mtu in grid.mtus()]

    return min(retx("baseline")) - max(
        max(retx(cca)) for cca in grid.ccas() if cca != "baseline"
    )


def _energy_steps(result: Any) -> float:
    """The smallest energy ratio between neighbouring fan-ins."""
    energies = [point.energy_j for point in result.points]
    return min(b / a for a, b in zip(energies, energies[1:]))


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
        (_table, (
            Claim("smooth power rises with throughput", _fig2_rises,
                  paper="yes", section="§4.1, Fig. 2",
                  **_verdict("yes", "no", bool)),
            Claim("and is concave", _fig2_concave, paper="yes",
                  section="§4.1, Fig. 2, Theorem 1",
                  **_verdict("yes", "no", bool)),
            _anchor("idle power", 0.0, 21.49, 0.02, curve=_smooth_power),
            _anchor("power at 5 Gb/s", 5.0, 34.23, 0.03, curve=_smooth_power),
            _anchor("power at 10 Gb/s", 10.0, 35.82, 0.03, curve=_smooth_power),
            Claim("first 5 Gb/s power increase",
                  lambda result: _increase(_smooth_power(result), 0.0, 5.0),
                  "{:.0%}".format, "~60%", "§4.1", lambda fraction: fraction > 0.45),
            Claim("next 5 Gb/s power increase",
                  lambda result: _increase(_smooth_power(result), 5.0, 10.0),
                  "{:.1%}".format, "~5%", "§4.1", lambda fraction: fraction < 0.10),
            Claim("full speed then idle draws less at every interior rate",
                  _chord_below, paper="yes", section="§4.1, Fig. 2",
                  **_verdict("yes", "no", bool)),
        )),
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
        (_fig4, (
            Claim("savings fall with every load step", _savings_fall,
                  paper="yes", section="§4.2, Fig. 4",
                  **_verdict("yes", "no", bool)),
            Claim("25%-load saving at datacenter scale",
                  lambda result: _fleet_musd(
                      result.savings_fsti_vs_fair_percent(0.25) / 100),
                  "${:.1f}M/year".format, "~$10M/year", "§4.2",
                  lambda musd: 5.0 < musd < 20.0),
            Claim("10 Gb/s power uplift at 75% load vs unloaded",
                  _uplift_ratio, "{:.0%}".format, "flatter", "§4.2, Fig. 4",
                  lambda ratio: ratio < 0.25),
        )),
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
                   "{:.0f}%".format, "~40%", "§4.3, Fig. 5",
                   lambda percent: 20.0 <= percent <= 70.0),
             Claim("smallest saving vs the no-CC baseline, any MTU, excl bbr2",
                   _smallest_baseline_saving, "{:.1f}%".format,
                   "8.2-14.2% @1500", "§4.3, Fig. 5", lambda percent: percent > 0.0),
             Claim("smallest MTU 1500 -> 9000 saving across CCAs",
                   lambda grid: min(100 * grid.mtu_savings_fraction(cca)
                                    for cca in grid.ccas()),
                   "{:.1f}%".format, "13.4-31.9%", "§4.4, Fig. 5",
                   lambda percent: percent > 8.0)),
            lambda grid: f"== Figure 6: power ==\n{grid.power_table()}",
            (Claim("corr(energy, power) @1500",
                   lambda grid: grid.energy_power_correlation(1500),
                   "{:.2f}".format, "-0.8", "§4.3, Fig. 6",
                   lambda corr: corr < -0.3),
             Claim("power spread across CCAs @1500",
                   lambda grid: 100 * grid.power_spread_fraction(1500),
                   "{:.1f}%".format, "~14%", "§4.3, Fig. 6",
                   lambda percent: percent > 4.0),
             Claim("bbr2 draws the least power, costs the most energy @1500",
                   _bbr2_inverts, paper="yes", section="§4.3, Figs. 5-6",
                   **_verdict("yes", "no", bool)),
             Claim("smallest power ratio MTU 1500 / 9000 across CCAs",
                   lambda grid: min(grid.power_w(cca, 1500) / grid.power_w(cca, 9000)
                                    for cca in grid.ccas()),
                   "{:.2f}x".format, None, "§4.4, Fig. 6",
                   lambda ratio: ratio > 1.0)),
            (Claim("corr(energy, fct)",
                   lambda grid: grid.energy_fct_correlation(),
                   "{:.2f}".format, None, "§4.5, Fig. 7",
                   lambda corr: corr > 0.7),
             Claim("MTU-1500 cluster vs MTU>=3000: FCT", _cluster_ratio(0),
                   "{:.2f}x".format, None, "§4.5, Fig. 7",
                   lambda ratio: ratio > 1.3),
             Claim("MTU-1500 cluster vs MTU>=3000: energy", _cluster_ratio(1),
                   "{:.2f}x".format, None, "§4.5, Fig. 7",
                   lambda ratio: ratio > 1.1),
             Claim("corr(energy, retx) excl bbr2",
                   lambda grid: grid.retx_energy_correlation(),
                   "{:.2f}".format, "0.47", "§4.5, Fig. 8",
                   lambda corr: corr > 0.2),
             Claim("baseline's fewest retx minus any other CCA's most",
                   _baseline_retx_margin, "{:.0f}".format, None, "§4.5, Fig. 8",
                   lambda margin: margin > 0)),
        ),
    ),
    Figure(
        "srpt", "SRPT transport energy (§5 extension)",
        "repro.figures.srpt.run_srpt_comparison",
        (*sizing(0, None, None, "seed"), policy("fair, srpt, serialized")),
        (_srpt, (
            Claim("pFabric-style SRPT saves energy vs fair",
                  lambda result: result.arms.savings_percent("srpt"),
                  "{:.1f}%".format, "predicted by Theorem 1", "§5",
                  lambda percent: percent > 5.0),
            Claim("and improves mean FCT",
                  lambda result: result.arms.fct_speedup("srpt"),
                  "{:.2f}x".format, "SRPT-optimal", "§5",
                  lambda speedup: speedup > 1.2),
            Claim("serialized saving less SRPT's",
                  lambda result: result.arms.savings_percent("serialized")
                  - result.arms.savings_percent("srpt"),
                  "{:+.1f} pp".format, None, "§5", lambda points: points > -5.0),
        )),
    ),
    Figure(
        "incast", "incast fan-in energy (§5 extension)",
        "repro.figures.incast.run_incast_sweep",
        sizing(20_000_000, "aggregate_bytes"),
        (_table, _incast, (
            Claim("smallest energy step between fan-ins", _energy_steps,
                  "x{:.2f}".format, None, "§5", lambda ratio: ratio > 1.0),
            Claim("energy growth over the sweep",
                  lambda result: result.energy_growth(), "x{:.2f}".format,
                  None, "§5", lambda growth: growth > 4.0),
        )),
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
        (_workload, (
            Claim("SRPT mean FCT speedup over fair",
                  lambda result: result.fct_speedup, "{:.2f}x".format,
                  "SRPT is free", "§5", lambda speedup: speedup > 1.0),
            Claim("SRPT energy vs fair",
                  lambda result: result.energy_ratio, "{:.3f}x".format,
                  "SRPT is free", "§5", lambda ratio: ratio < 1.1),
        )),
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


def _headline_musd(_: Any) -> float:
    """The paper's 1 % fleet-wide saving at datacenter scale, $M/year."""
    return _fleet_musd(0.01)


def run_report(transfer_bytes: int, repetitions: int, seed: int) -> SimpleNamespace:
    """The measurements :data:`REPORT` reads, at a size the caller
    picks: 8 MB per flow by default, 12.5 MB (the paper's 1/100) in
    ``make claims``."""
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
            transfer_bytes=transfer_bytes, repetitions=repetitions, base_seed=seed,
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


def _fig1_table(measured: Any) -> str:
    """The report's Figure 1 table: the 20/50/80% splits and
    full-speed-then-idle (the claims read all nine splits)."""
    from repro.figures.fig1 import Fig1Result

    return Fig1Result([
        point for point in measured.fig1.points
        if point.flow0_fraction in (None, 0.2, 0.5, 0.8)
    ]).format_table()


def _costliest_vs_fair(fig1: Any) -> float:
    """The costliest unfair allocation's energy over the fair one's."""
    fair = fig1.fair_point
    return max(p.mean_energy_j for p in fig1.points if p is not fair) / fair.mean_energy_j


def _smallest_step_from_fair(fig1: Any) -> float:
    """The smallest change in saving, in percentage points, from one
    split to the next walking away from the fair one on either side
    (negative where the saving shrinks)."""
    ordered = sorted((p for p in fig1.points if p.flow0_fraction is not None),
                     key=lambda p: p.flow0_fraction)
    savings = [fig1.savings_vs_fair_percent(p) for p in ordered]
    fair = ordered.index(fig1.fair_point)
    sides = (savings[fair:], savings[fair::-1])
    return min(b - a for side in sides for a, b in zip(side, side[1:]))


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
              lambda m: _costliest_vs_fair(m.fig1),
              paper="yes", section="§4.1, Fig. 1",
              **_verdict("yes", "no", lambda ratio: ratio < 1.0)),
        Claim("full-speed-then-idle saving",
              lambda m: m.fig1.savings_vs_fair_percent(m.fig1.fsti_point),
              "{:.1f}%".format, "~16%", "§4.1, Fig. 1",
              lambda percent: 13.0 <= percent <= 19.0),
        Claim("smallest saving step away from fair",
              lambda m: _smallest_step_from_fair(m.fig1),
              "{:+.2f} pp".format, "savings grow toward the extremes",
              "§4.1, Fig. 1", lambda points: points >= -0.75),
    ), _fig1_table),
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
              "~$10M/year", "§4.2", _close(10.0, 1e-6)),
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


def _loaded_saving(model: Any, load: float) -> float:
    """Full-speed-then-idle's fractional saving over fair at 5 Gb/s on
    a host ``load`` busy."""
    fair = model.smooth_sending_power_w(5.0, load)
    return (fair - model.full_speed_then_idle_power_w(5.0, load=load)) / fair


#: ``greenenvy validate``'s checks of the calibrated power model
#: against the paper's printed numbers, in dependency order; their
#: measures take a :class:`~repro.energy.power_model.PowerModel`
CALIBRATION: Tuple[Claim, ...] = (
    _anchor("idle power anchor", 0.0, 21.49, note=" (paper §4.1)"),
    _anchor("half-rate anchor", 5.0, 34.23),
    _anchor("line-rate anchor", 10.0, 35.82),
    Claim("strict concavity (Theorem 1 premise)", _concave,
          paper="concave on [0, 10] Gb/s", section="§4.1, Theorem 1",
          **_verdict("holds", "VIOLATED", bool)),
    Claim("full-speed-then-idle saving", _fsti_saving, "{:.1%}".format,
          "16.3% (paper §4.1 arithmetic)", "§4.1", _close(0.163, 0.05)),
    Claim("first 5 Gb/s power increase",
          lambda model: _increase(model.smooth_sending_power_w, 0.0, 5.0), "{:.0%}".format,
          "~60% (paper: 12.7 W on 21.49 W)", "§4.1",
          lambda fraction: 0.5 <= fraction <= 0.7),
    Claim("next 5 Gb/s power increase",
          lambda model: _increase(model.smooth_sending_power_w, 5.0, 10.0), "{:.1%}".format,
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

