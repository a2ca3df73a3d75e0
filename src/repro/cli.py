"""``greenenvy`` command-line interface.

One subcommand per paper artifact::

    greenenvy fig1                 # unfairness-savings sweep
    greenenvy fig2                 # power vs throughput curve
    greenenvy fig3                 # fair vs serialized timeseries
    greenenvy fig4                 # loaded-host power curves
    greenenvy grid                 # the CCA x MTU grid feeding figs 5-8
    greenenvy theorem              # Theorem 1 numeric verification
    greenenvy advise 1e9 5e8 2e9   # green-schedule a batch of transfers
    greenenvy policies             # list registered scheduling policies
    greenenvy pareto --policy all  # FCT-vs-energy frontier across them
    greenenvy obs watch DIR        # live progress/ETA of a traced sweep

The figure commands that admit multiple scheduling arms (``fig3``,
``srpt``, ``workload``, ``fabric``, ``pareto``) all spell them the
same way: a repeatable ``--policy NAME`` flag naming entries of the
:mod:`repro.sched` registry.

Sizes are scaled down from the paper's (DESIGN.md §5) so every command
finishes in seconds to minutes on a laptop; pass ``--bytes``/``--reps``
to trade time for fidelity.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ObservabilityError, SweepAbortedError

#: exit code for a sweep cancelled mid-run (drift gate or abort file),
#: distinct from failures (1) and usage/IO errors (2)
EXIT_ABORTED = 3


def _add_common(parser: argparse.ArgumentParser, default_bytes: int) -> None:
    parser.add_argument(
        "--bytes", type=int, default=default_bytes,
        help="per-flow transfer size in bytes",
    )
    parser.add_argument("--reps", type=int, default=3, help="repetitions per point")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")


def _add_parallel(parser: argparse.ArgumentParser) -> None:
    """Executor-layer knobs: results are identical whatever their values."""
    parser.add_argument(
        "--jobs", "-j", type=int, default=None,
        help="worker processes for the simulations (default: serial; "
        "results are bit-identical either way)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="content-addressed result cache directory; reruns with "
        "unchanged parameters replay stored measurements",
    )
    parser.add_argument(
        "--trace", default=None, metavar="DIR",
        help="write a run journal (journal.jsonl) and metrics exports "
        "into DIR; inspect with 'greenenvy obs report DIR'. Tracing "
        "never changes results",
    )


def _add_policy(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument(
        "--policy", action="append", dest="policies", metavar="NAME",
        help="scheduling policy to run (repeatable; comma lists and "
        f"'all' also work; default: {default}; see 'greenenvy policies')",
    )


def _policies(args: argparse.Namespace) -> Optional[List[str]]:
    """Canonical, deduplicated policy names from ``--policy`` flags.

    ``None`` when the user gave no flag, so each figure keeps its own
    classic default arms. ``all`` expands to the whole registry;
    retired spellings resolve through the aliases (with their
    deprecation warning).
    """
    values = getattr(args, "policies", None)
    if not values:
        return None
    from repro.sched import policy_names, resolve_policy_name

    names: List[str] = []
    for value in values:
        for part in value.split(","):
            part = part.strip()
            if not part:
                continue
            if part.lower() == "all":
                names.extend(policy_names())
            else:
                names.append(resolve_policy_name(part))
    return list(dict.fromkeys(names)) or None


def _trace_note(args: argparse.Namespace) -> None:
    if getattr(args, "trace", None):
        print(f"\ntrace written to {args.trace} "
              f"(greenenvy obs report {args.trace})")


def _add_abort_on_drift(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--abort-on-drift", metavar="BASELINE", dest="abort_on_drift",
        help="cancel the sweep early (exit 3) as soon as a scenario "
        "that finished all its repetitions drifts from this baseline "
        "JSON ('greenenvy obs snapshot')",
    )


def _add_tolerance(parser: argparse.ArgumentParser) -> None:
    """Repeatable ``--tolerance METRIC=REL``; ``args.tolerance`` is a
    list of ``(metric, relative)`` pairs ready for ``dict()``."""

    def pair(spec: str) -> Tuple[str, float]:
        name, sep, value = spec.partition("=")
        try:
            if not name or not sep:
                raise ValueError(spec)
            return name, float(value)
        except ValueError:
            # Not an ArgumentTypeError: argparse would exit through its
            # own usage message; this reaches main()'s boundary instead.
            raise ObservabilityError(
                f"bad --tolerance {spec!r} (want metric=relative, "
                "e.g. energy_j=1e-3)"
            ) from None

    parser.add_argument(
        "--tolerance", action="append", default=[], type=pair,
        metavar="METRIC=REL",
        help="override a metric's relative tolerance (repeatable), "
        "e.g. --tolerance energy_j=1e-3",
    )


def _drift_control(args: argparse.Namespace) -> Any:
    """``--abort-on-drift`` wiring: the sweep's control, or ``None``.

    The gate's cancel cord is a :class:`FileCancelToken` when the run is
    traced — so an external ``obs watch --abort-on-drift`` (or a bare
    ``touch DIR/abort.requested``) can stop the same sweep — and a plain
    in-process token otherwise. The gate is left on ``args.drift_gate``
    for :func:`main` to print its drift table if the sweep aborts.
    """
    baseline = args.abort_on_drift
    if not baseline:
        return None
    from pathlib import Path

    from repro.harness.executor import (
        CancelToken,
        FileCancelToken,
        SweepControl,
    )
    from repro.obs.journal import ABORT_FILENAME
    from repro.obs.live import DriftGate

    token = (
        FileCancelToken(Path(args.trace) / ABORT_FILENAME)
        if args.trace
        else CancelToken()
    )
    gate = DriftGate(baseline, repetitions=args.reps, cancel=token)
    args.drift_gate = gate
    return SweepControl(on_result=gate.on_result, cancel=token)


@contextlib.contextmanager
def _launch(args: argparse.Namespace) -> Iterator[Dict[str, Any]]:
    """The launch keywords every sweep command passes its figure driver.

    ``jobs``/``cache_dir`` from :func:`_add_parallel`, the ``--trace``
    observer (open for the duration of the ``with`` block, no-op
    without the flag), and ``control`` on the commands that take
    ``--abort-on-drift``.
    """
    from repro.obs.observer import resolve_observer

    launch: Dict[str, Any] = dict(jobs=args.jobs, cache_dir=args.cache_dir)
    if hasattr(args, "abort_on_drift"):
        launch["control"] = _drift_control(args)
    with resolve_observer(args.trace) as obs:
        launch["observer"] = obs
        yield launch


def _aborted_exit(exc: SweepAbortedError, gate: Any) -> int:
    """Render a :class:`SweepAbortedError`: partial figure, drift, exit 3."""
    if exc.partial_figure is not None:
        print(exc.partial_figure.format_table())
        print()
    if gate is not None and gate.drifted:
        from repro.obs.baseline import format_drift_table

        print(format_drift_table(gate.gating_rows))
        print()
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_ABORTED


def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.figures.fig1 import run_fig1

    with _launch(args) as launch:
        result = run_fig1(
            transfer_bytes=args.bytes, repetitions=args.reps,
            base_seed=args.seed, **launch,
        )
    print(result.format_table())
    print(f"\nmax savings vs fair: {result.max_savings_percent:.1f}% "
          f"(paper: ~16%)")
    _trace_note(args)
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    from repro.figures.fig2 import run_fig2

    with _launch(args) as launch:
        result = run_fig2(
            repetitions=args.reps, base_seed=args.seed, **launch
        )
    print(result.format_table())
    _trace_note(args)
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    from repro.figures.fig3 import run_fig3

    from repro.units import to_gbps

    result = run_fig3(
        transfer_bytes=args.bytes, seed=args.seed, policies=_policies(args)
    )
    for panel in result.panels:
        print(f"\n== {panel} ==")
        for flow, series in result.panel(panel):
            samples = " ".join(f"{to_gbps(v):.1f}" for v in series.values)
            print(f"flow {flow} (Gb/s per ms): {samples}")
        means = ", ".join(f"{m:.2f}" for m in result.mean_throughputs_gbps(panel))
        print(f"window-average throughputs: {means} Gb/s")
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.figures.fig4 import run_fig4

    with _launch(args) as launch:
        result = run_fig4(
            repetitions=args.reps, base_seed=args.seed, **launch
        )
    print(result.format_table())
    for load in result.loads():
        print(
            f"full-speed-then-idle savings at load {100 * load:.0f}%: "
            f"{result.savings_fsti_vs_fair_percent(load):.2f}%"
        )
    _trace_note(args)
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    from repro.figures.fig5 import fig5_from_grid
    from repro.figures.fig6 import fig6_from_grid
    from repro.figures.fig7 import fig7_from_grid
    from repro.figures.fig8 import fig8_from_grid
    from repro.figures.grid import run_cca_mtu_grid

    with _launch(args) as launch:
        grid = run_cca_mtu_grid(
            transfer_bytes=args.bytes, repetitions=args.reps,
            base_seed=args.seed, **launch,
        )
    if getattr(args, "json", None):
        from repro.analysis.export import save_json

        save_json([cell.result for cell in grid.cells], args.json)
        print(f"wrote raw measurements to {args.json}\n")
    fig5 = fig5_from_grid(grid)
    fig6 = fig6_from_grid(grid)
    fig7 = fig7_from_grid(grid)
    fig8 = fig8_from_grid(grid)
    print("== Figure 5: energy ==")
    print(fig5.format_table())
    print(f"\nBBR2 vs BBR energy overhead @9000: "
          f"{100 * fig5.bbr2_vs_bbr_fraction(9000):.0f}% (paper: ~40%)")
    print("\n== Figure 6: power ==")
    print(fig6.format_table())
    print(f"\ncorr(energy, power) @1500: "
          f"{fig6.energy_power_correlation(1500):.2f} (paper: -0.8)")
    print(f"\ncorr(energy, fct): {fig7.energy_fct_correlation():.2f}")
    print(f"corr(energy, retx) excl bbr2: {fig8.correlation():.2f} "
          f"(paper: 0.47)")
    _trace_note(args)
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.journal import read_journal
    from repro.obs.report import (
        format_report,
        summarize_journal,
        summary_to_dict,
    )

    events = read_journal(args.journal)
    if not events:
        raise ObservabilityError(
            f"journal at {args.journal} is empty (no events recorded)"
        )
    summary = summarize_journal(events, slowest=args.slowest)
    if args.format == "json":
        import json

        print(json.dumps(summary_to_dict(summary), indent=2, sort_keys=True))
    else:
        print(format_report(summary))
        for extra in _report_extras(args.journal):
            print()
            print(extra)
    # A journal with worker errors fails the command, so CI can gate on
    # sweep health: greenenvy obs report trace/ && deploy ...
    return 0 if summary.healthy else 1


def _report_extras(target: str) -> List[str]:
    """Attribution and profile sections for trace-directory reports.

    ``obs report`` also accepts a bare journal file; only a trace
    directory can carry the sibling ``telemetry.jsonl``/``profile.jsonl``
    these sections read, so they quietly disappear otherwise.
    """
    from pathlib import Path

    from repro.obs.attrib import summarize_flow_energy
    from repro.obs.profile import profile_path, read_profile, summarize_profile
    from repro.obs.telemetry import read_telemetry, telemetry_path

    sections: List[str] = []
    root = Path(target)
    if not root.is_dir():
        return sections
    if telemetry_path(root).exists():
        flows = summarize_flow_energy(read_telemetry(root))
        if flows:
            sections.append("== top energy flows ==\n" + flows)
    if profile_path(root).exists():
        sections.append(
            "== sim-loop profile ==\n"
            + summarize_profile(read_profile(root))
        )
    return sections


def _cmd_obs_timeline(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import read_telemetry
    from repro.obs.timeline import (
        filter_records,
        format_timeline,
        timeline_csv,
        timeline_json,
    )

    matched = filter_records(
        read_telemetry(args.trace),
        scenario=args.scenario,
        seed=args.seed,
        channel=args.channel,
        entity=args.entity,
    )
    if not matched:
        print("no telemetry streams match the given filters", file=sys.stderr)
        return 1
    if args.format == "csv":
        sys.stdout.write(timeline_csv(matched))
    elif args.format == "json":
        print(timeline_json(matched))
    else:
        print(format_timeline(matched, samples=args.samples))
    return 0


def _cmd_obs_snapshot(args: argparse.Namespace) -> int:
    from repro.obs.baseline import save_baseline, snapshot_from_journal
    from repro.obs.journal import read_journal

    snapshot = snapshot_from_journal(read_journal(args.trace))
    if args.output:
        save_baseline(snapshot, args.output)
        print(
            f"wrote baseline {args.output} "
            f"({len(snapshot['metrics'])} gated metrics)"
        )
    else:
        import json

        print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs.baseline import (
        compare,
        format_drift_table,
        has_regression,
        load_baseline,
        snapshot_from_journal,
    )
    from repro.obs.journal import read_journal

    baseline = load_baseline(args.baseline)
    current = snapshot_from_journal(read_journal(args.trace))
    rows = compare(baseline, current, tolerances=dict(args.tolerance) or None)
    print(format_drift_table(rows))
    # Non-zero on drift so CI can gate: greenenvy obs diff base.json trace/
    return 1 if has_regression(rows) else 0


def _cmd_obs_watch(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.obs.baseline import format_drift_table
    from repro.obs.live import (
        DriftGate,
        LiveSweepView,
        ProgressServer,
        request_abort,
    )
    from repro.obs.progress import format_progress, progress_to_dict

    if args.abort_on_drift and not args.baseline:
        raise ObservabilityError("--abort-on-drift needs --baseline")

    gate: Optional[DriftGate] = None
    if args.baseline:

        class _AbortFlag:
            """The gate's cancel cord for a sweep this process doesn't
            own: creating the abort flag file is the cooperative stop
            channel the running coordinator polls."""

            def cancel(self, reason: str) -> None:
                request_abort(args.trace, reason)

        gate = DriftGate(
            args.baseline,
            cancel=_AbortFlag() if args.abort_on_drift else None,
        )

    view = LiveSweepView(
        args.trace,
        on_event=gate.observe_event if gate is not None else None,
    )

    server = None
    if args.serve is not None:
        server = ProgressServer(view, port=args.serve).start()
        print(
            f"serving http://127.0.0.1:{server.port}/progress "
            f"(JSON) and /metrics (Prometheus)",
            file=sys.stderr,
        )
    # Full-screen refresh only when someone is actually watching a
    # terminal; piped output gets one appended block per refresh.
    refresh = sys.stdout.isatty() and not args.once and not args.json
    try:
        while True:
            view.poll()
            progress = view.snapshot()
            if args.json:
                print(json.dumps(progress_to_dict(progress), sort_keys=True))
                sys.stdout.flush()
            else:
                if refresh:
                    print("\x1b[2J\x1b[H", end="")
                print(format_progress(progress))
            if args.once or progress.complete or progress.aborted:
                break
            if not refresh and not args.json:
                print()
            time.sleep(args.interval)
    finally:
        if server is not None:
            server.stop()

    drifted = gate is not None and gate.drifted
    if drifted and not args.json:
        print()
        print(format_drift_table(gate.gating_rows))
    # Exit 1 when the watched sweep is demonstrably unhealthy — it
    # drifted, aborted, or recorded worker errors. A --once snapshot of
    # a sweep that is simply still running exits 0.
    return 1 if (drifted or progress.aborted or progress.errors) else 0


def _cmd_obs_profile(args: argparse.Namespace) -> int:
    from repro.figures.fig1 import run_fig1
    from repro.obs.observer import TracingObserver
    from repro.obs.profile import (
        export_profile,
        read_profile,
        summarize_profile,
    )

    with TracingObserver(args.trace, profile=True) as obs:
        run_fig1(
            transfer_bytes=args.bytes, repetitions=args.reps,
            base_seed=args.seed, jobs=args.jobs, observer=obs,
        )
    records = read_profile(args.trace)
    paths = export_profile(args.trace, records=records)
    print(summarize_profile(records, top=args.top))
    print()
    print(f"flamegraph input:  {paths['folded']} "
          f"(flamegraph.pl {paths['folded'].name} > flame.svg)")
    print(f"callgrind profile: {paths['callgrind']} (kcachegrind)")
    print(f"chrome trace:      {paths['chrome']} (chrome://tracing, Perfetto)")
    return 0


def _cmd_theorem(args: argparse.Namespace) -> int:
    from repro.core.theorem import worst_allocation_is_fair
    from repro.energy.power_model import PowerModel

    model = PowerModel()
    p = lambda t: model.smooth_sending_power_w(t)  # noqa: E731
    holds = worst_allocation_is_fair(p, 10.0, n=args.flows, trials=args.trials)
    print(
        f"Theorem 1 over {args.trials} random allocations of {args.flows} "
        f"flows: fair share is the most expensive — "
        f"{'CONFIRMED' if holds else 'VIOLATED'}"
    )
    return 0 if holds else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import quick_report

    report = quick_report(
        transfer_bytes=args.bytes, repetitions=args.reps, seed=args.seed
    )
    text = report.render()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output} "
              f"({report.claims_ok}/{report.claims_total} claims ok)")
    else:
        print(text)
    return 0 if report.claims_ok == report.claims_total else 1


def _cmd_srpt(args: argparse.Namespace) -> int:
    from repro.figures.srpt import run_srpt_comparison

    result = run_srpt_comparison(seed=args.seed, policies=_policies(args))
    print(result.format_table())
    for name in sorted(set(result.points) - {"fair"}):
        print(
            f"\n{name}: {result.energy_savings_vs_fair(name):.1%} "
            f"energy saving, {result.fct_speedup_vs_fair(name):.2f}x mean FCT"
        )
    return 0


def _cmd_incast(args: argparse.Namespace) -> int:
    from repro.figures.incast import run_incast_sweep

    result = run_incast_sweep(aggregate_bytes=args.bytes)
    print(result.format_table())
    print(f"\nenergy growth 1 -> {result.points[-1].fan_in} senders: "
          f"x{result.energy_growth():.2f}")
    return 0


def _cmd_loadbalance(args: argparse.Namespace) -> int:
    from repro.figures.load_balance import run_hardware_comparison

    today, adaptive = run_hardware_comparison()
    print(today.format_table())
    print()
    print(adaptive.format_table())
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.figures.workload_energy import run_workload_energy

    result = run_workload_energy(
        distribution=args.distribution, target_load=args.load, seed=args.seed,
        policies=_policies(args),
    )
    print(
        f"{result.workload.name}: {len(result.workload.flows)} flows, "
        f"offered load {result.workload.offered_load:.2f}\n"
    )
    print(result.format_table())
    if "fair" in result.points:
        fair = result.points["fair"]
        for name in sorted(set(result.points) - {"fair"}):
            point = result.points[name]
            print(
                f"\n{name}: {fair.mean_fct_s / point.mean_fct_s:.2f}x mean "
                f"FCT at {point.energy_j / fair.energy_j:.3f}x the energy"
            )
    return 0


def _cmd_fabric(args: argparse.Namespace) -> int:
    from repro.figures.fabric import DEFAULT_POLICIES, run_fabric_figure
    from repro.units import MILLION

    ccas = [c.strip() for c in args.ccas.split(",") if c.strip()]
    with _launch(args) as launch:
        result = run_fabric_figure(
            ccas=ccas,
            n_flows=args.flows,
            mix=args.mix,
            target_load=args.load,
            topology=args.topology,
            leaves=args.leaves,
            spines=args.spines,
            hosts_per_leaf=args.hosts_per_leaf,
            switch_power=args.switch_power,
            repetitions=args.reps,
            base_seed=args.seed,
            policies=_policies(args) or DEFAULT_POLICIES,
            **launch,
        )
    print(result.format_table())
    # The fair arms score exactly 0% against themselves, so the best
    # (cca, policy) cell is fair only when every other arm costs energy.
    cca, policy, saving = max(
        (
            (point.cca, name, point.savings_percent_vs_fair(name))
            for point in result.points
            for name in result.policies
        ),
        key=lambda row: row[2],
    )
    print(
        f"\nbest fleet saving: {saving:.1f}% ({cca}, {policy}), worth "
        f"${result.annualized_value_usd(cca, policy) / MILLION:.1f}M/year "
        f"at datacenter scale"
    )
    _trace_note(args)
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    from repro.figures.pareto import WORKLOADS, run_pareto

    kwargs = {}
    if args.link_batch:
        kwargs["link_batch"] = tuple(
            int(float(s)) for s in args.link_batch.split(",") if s.strip()
        )
    with _launch(args) as launch:
        result = run_pareto(
            policies=_policies(args),
            link_cca=args.link_cca,
            deadline_slack=args.deadline_slack,
            fabric_cca=args.fabric_cca,
            n_flows=args.flows,
            mix=args.mix,
            target_load=args.load,
            leaves=args.leaves,
            spines=args.spines,
            hosts_per_leaf=args.hosts_per_leaf,
            repetitions=args.reps,
            base_seed=args.seed,
            **kwargs,
            **launch,
        )
    print(result.format_table())
    for workload in WORKLOADS:
        front = " -> ".join(p.policy for p in result.frontier(workload))
        print(f"\n{workload} frontier (fastest -> greenest): {front}")
    _trace_note(args)
    return 0


def _cmd_policies(args: argparse.Namespace) -> int:
    from repro.sched import POLICY_ALIASES, get_policy, policy_names

    names = policy_names()
    width = max(len(name) for name in names)
    for name in names:
        print(f"{name:<{width}}  {get_policy(name).description}")
    if POLICY_ALIASES:
        spellings = ", ".join(
            f"{old} -> {new}" for old, new in sorted(POLICY_ALIASES.items())
        )
        print(f"\nretired spellings (deprecated): {spellings}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validation import run_validation, validation_passed

    checks = run_validation()
    width = max(len(c.name) for c in checks)
    for check in checks:
        mark = "ok " if check.ok else "FAIL"
        print(f"[{mark}] {check.name:<{width}}  expected {check.expected}, "
              f"got {check.actual}")
    ok = validation_passed(checks)
    print(f"\n{'all checks passed' if ok else 'CALIBRATION BROKEN'}")
    return 0 if ok else 1


def _cmd_mptcp(args: argparse.Namespace) -> int:
    from repro.figures.mptcp import run_mptcp_comparison

    result = run_mptcp_comparison(total_bytes=args.bytes, seed=args.seed)
    print(result.format_table())
    print(f"\nspreading subflows across packages costs "
          f"+{100 * result.spread_penalty():.0f}%")
    return 0


def _cmd_mechanisms(args: argparse.Namespace) -> int:
    from repro.figures.mechanisms import run_mechanism_breakdown

    result = run_mechanism_breakdown(transfer_bytes=args.bytes)
    print(result.format_table())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        LintUsageError,
        iter_rules,
        render_json,
        render_sarif,
        render_text,
        run_lint,
    )

    if args.list_rules:
        width = max(len(rule.name) for rule in iter_rules())
        for rule in iter_rules():
            print(f"{rule.name:<{width}}  [{rule.family}] {rule.description}")
        return 0
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    try:
        result = run_lint(args.paths, select=select, ignore=ignore)
    except LintUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fmt = "sarif" if args.sarif else args.format
    if fmt == "json":
        print(render_json(result))
    elif fmt == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result))
    return 0 if result.clean else 1


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.advisor import EnergyAdvisor
    from repro.units import MILLION

    advisor = EnergyAdvisor()
    # Accept scientific notation ("1e9") as the usage examples promise.
    rec = advisor.recommend([int(float(b)) for b in args.sizes])
    print(f"schedule (serialized, SRPT): {' -> '.join(rec.schedule)}")
    print(f"fair-share energy:  {rec.fair_energy_j:.2f} J")
    print(f"serialized energy:  {rec.serialized_energy_j:.2f} J")
    print(f"saving:             {100 * rec.savings_fraction:.1f}%")
    value = advisor.annualized_value(rec.savings_fraction)
    print(f"at 100k-rack scale: ${value / MILLION:.1f}M/year")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="greenenvy",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", help="unfairness vs energy savings sweep")
    _add_common(p, default_bytes=12_500_000)
    _add_parallel(p)
    _add_abort_on_drift(p)
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser("fig2", help="power vs throughput curves")
    _add_common(p, default_bytes=0)
    _add_parallel(p)
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser(
        "fig3", help="per-policy throughput timeseries (one panel each)"
    )
    _add_common(p, default_bytes=12_500_000)
    _add_policy(p, default="fair, serialized")
    p.set_defaults(func=_cmd_fig3)

    p = sub.add_parser("fig4", help="loaded-host power curves")
    _add_common(p, default_bytes=0)
    _add_parallel(p)
    p.set_defaults(func=_cmd_fig4)

    p = sub.add_parser("grid", help="CCA x MTU grid (figures 5-8)")
    _add_common(p, default_bytes=25_000_000)
    _add_parallel(p)
    p.add_argument("--json", help="also dump raw measurements to this file")
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("theorem", help="verify Theorem 1 numerically")
    p.add_argument("--flows", type=int, default=2)
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=_cmd_theorem)

    p = sub.add_parser(
        "lint",
        help="simulator-correctness static analysis (units, determinism, "
        "CCA contract, API hygiene)",
    )
    p.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    p.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format",
    )
    p.add_argument(
        "--sarif", action="store_true",
        help="shorthand for --format sarif (SARIF 2.1.0)",
    )
    p.add_argument(
        "--select", help="comma-separated rule names to run (default: all)"
    )
    p.add_argument(
        "--ignore", help="comma-separated rule names to skip"
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="list available rules and exit",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("advise", help="green-schedule a batch of transfers")
    p.add_argument("sizes", nargs="+", help="transfer sizes in bytes")
    p.set_defaults(func=_cmd_advise)

    p = sub.add_parser(
        "report", help="run the quick end-to-end reproduction report"
    )
    _add_common(p, default_bytes=8_000_000)
    p.add_argument("--output", "-o", help="write markdown to a file")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("srpt", help="SRPT transport energy (§5 extension)")
    _add_common(p, default_bytes=0)
    _add_policy(p, default="fair, srpt, serialized")
    p.set_defaults(func=_cmd_srpt)

    p = sub.add_parser("incast", help="incast fan-in energy (§5 extension)")
    _add_common(p, default_bytes=20_000_000)
    p.set_defaults(func=_cmd_incast)

    p = sub.add_parser(
        "loadbalance", help="link imbalance under two switch-power models"
    )
    p.set_defaults(func=_cmd_loadbalance)

    p = sub.add_parser(
        "workload", help="production workloads: per-policy energy and FCT"
    )
    _add_common(p, default_bytes=0)
    p.add_argument(
        "--distribution", default="web-search",
        choices=("web-search", "data-mining"),
    )
    p.add_argument("--load", type=float, default=0.5)
    _add_policy(p, default="fair, srpt")
    p.set_defaults(func=_cmd_workload)

    p = sub.add_parser(
        "fabric",
        help="leaf-spine fleet energy at 1k+ flows, per scheduling "
        "policy and datacenter CCA",
    )
    p.add_argument(
        "--flows", type=int, default=1000,
        help="concurrent flows in the generated workload",
    )
    p.add_argument(
        "--ccas", default="dctcp,dcqcn",
        help="comma-separated datacenter CCAs (dctcp, dcqcn, hpcc, swift)",
    )
    p.add_argument("--leaves", type=int, default=8, help="leaf (ToR) switches")
    p.add_argument("--spines", type=int, default=2, help="spine switches")
    p.add_argument(
        "--hosts-per-leaf", type=int, default=8, help="hosts per rack"
    )
    p.add_argument(
        "--topology", default="leaf-spine", choices=("leaf-spine", "fat-tree")
    )
    p.add_argument(
        "--load", type=float, default=0.3,
        help="target offered load as a fraction of host capacity",
    )
    p.add_argument(
        "--mix", default="datacenter",
        help="traffic mix (datacenter, rpc-heavy, or a single distribution)",
    )
    p.add_argument(
        "--switch-power", default="today", choices=("today", "rate-adaptive"),
        help="switch power hardware model",
    )
    p.add_argument("--reps", type=int, default=1, help="repetitions per arm")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    _add_policy(p, default="fair, serialized")
    _add_parallel(p)
    _add_abort_on_drift(p)
    p.set_defaults(func=_cmd_fabric)

    p = sub.add_parser(
        "pareto",
        help="FCT-vs-energy Pareto frontier across scheduling policies "
        "on a link batch and a leaf-spine workload",
    )
    _add_policy(p, default="every registered policy")
    p.add_argument(
        "--link-batch", metavar="BYTES,BYTES,...",
        help="comma-separated flow sizes for the link workload "
        "(default: 20M,10M,5M,2.5M)",
    )
    p.add_argument(
        "--link-cca", default="cubic", help="CCA for the link workload"
    )
    p.add_argument(
        "--deadline-slack", type=float, default=4.0,
        help="per-flow deadline as a multiple of line-rate duration",
    )
    p.add_argument(
        "--fabric-cca", default="dctcp", help="CCA for the fabric workload"
    )
    p.add_argument(
        "--flows", type=int, default=200, help="fabric workload flow count"
    )
    p.add_argument(
        "--mix", default="rpc",
        help="fabric traffic mix (datacenter, rpc-heavy, or a distribution)",
    )
    p.add_argument(
        "--load", type=float, default=0.3,
        help="fabric target offered load as a fraction of host capacity",
    )
    p.add_argument("--leaves", type=int, default=4, help="leaf (ToR) switches")
    p.add_argument("--spines", type=int, default=2, help="spine switches")
    p.add_argument(
        "--hosts-per-leaf", type=int, default=4, help="hosts per rack"
    )
    p.add_argument("--reps", type=int, default=1, help="repetitions per arm")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    _add_parallel(p)
    _add_abort_on_drift(p)
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser(
        "policies",
        help="list the registered scheduling policies (see docs/scheduling.md)",
    )
    p.set_defaults(func=_cmd_policies)

    p = sub.add_parser(
        "validate", help="fast calibration self-check (no simulation)"
    )
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "mptcp", help="subflow multiplexing energy ([59]'s MPTCP findings)"
    )
    _add_common(p, default_bytes=20_000_000)
    p.set_defaults(func=_cmd_mptcp)

    p = sub.add_parser(
        "mechanisms",
        help="per-mechanism energy attribution for each CCA (§5)",
    )
    _add_common(p, default_bytes=20_000_000)
    p.set_defaults(func=_cmd_mechanisms)

    p = sub.add_parser(
        "obs",
        help="inspect traces written by --trace: journals, live "
        "progress, in-sim telemetry, and cross-run baselines",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p = obs_sub.add_parser(
        "report", help="summarize a sweep's journal (exit 1 on worker errors)"
    )
    p.add_argument(
        "journal",
        help="trace directory (containing journal.jsonl) or a .jsonl file",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format",
    )
    p.add_argument(
        "--slowest", type=int, default=5,
        help="how many slowest runs to list",
    )
    p.set_defaults(func=_cmd_obs_report)

    p = obs_sub.add_parser(
        "timeline",
        help="render in-sim telemetry series (cwnd, queue depth, power) "
        "from a trace (exit 1 when filters match nothing)",
    )
    p.add_argument(
        "trace",
        help="trace directory (containing telemetry.jsonl) or a .jsonl file",
    )
    p.add_argument("--scenario", help="only this scenario")
    p.add_argument("--seed", type=int, help="only this seed")
    p.add_argument(
        "--channel", help="only this channel (e.g. cwnd_bytes, power_w)"
    )
    p.add_argument(
        "--entity", help="only this entity (e.g. flow-1, bottleneck)"
    )
    p.add_argument(
        "--format", choices=("text", "csv", "json"), default="text",
        help="output format",
    )
    p.add_argument(
        "--samples", type=int, default=0,
        help="also print up to N evenly-spaced samples per stream (text)",
    )
    p.set_defaults(func=_cmd_obs_timeline)

    p = obs_sub.add_parser(
        "snapshot",
        help="snapshot a traced sweep's deterministic outcomes as a "
        "baseline JSON document",
    )
    p.add_argument(
        "trace",
        help="trace directory (containing journal.jsonl) or a .jsonl file",
    )
    p.add_argument(
        "--output", "-o", help="write the baseline here (default: stdout)"
    )
    p.set_defaults(func=_cmd_obs_snapshot)

    p = obs_sub.add_parser(
        "diff",
        help="compare a traced sweep against a committed baseline "
        "(exit 1 on drift beyond tolerance — the CI regression gate)",
    )
    p.add_argument("baseline", help="baseline JSON from 'obs snapshot'")
    p.add_argument(
        "trace",
        help="trace directory (containing journal.jsonl) or a .jsonl file",
    )
    _add_tolerance(p)
    p.set_defaults(func=_cmd_obs_diff)

    p = obs_sub.add_parser(
        "watch",
        help="live progress/ETA of a running traced sweep — tails the "
        "journal and worker partials; optional HTTP endpoint and "
        "incremental drift abort (exit 1 when the sweep drifted, "
        "aborted, or erred)",
    )
    p.add_argument(
        "trace", help="trace directory a --trace sweep is writing into"
    )
    p.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh period",
    )
    p.add_argument(
        "--once", action="store_true",
        help="print a single snapshot and exit (status-check mode)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="one JSON progress object per refresh instead of the "
        "text view",
    )
    p.add_argument(
        "--baseline", metavar="PATH",
        help="baseline JSON from 'obs snapshot'; scenarios are diffed "
        "incrementally as they finish all repetitions",
    )
    p.add_argument(
        "--abort-on-drift", action="store_true",
        help="on drift, write the trace's abort flag file so the "
        "running sweep cancels cooperatively (needs --baseline)",
    )
    p.add_argument(
        "--serve", type=int, default=None, metavar="PORT",
        help="also serve /progress (JSON) and /metrics (Prometheus) "
        "on 127.0.0.1:PORT (0 picks a free port)",
    )
    p.set_defaults(func=_cmd_obs_watch)

    p = obs_sub.add_parser(
        "profile",
        help="run the canonical fig1 sweep with cProfile over each sim "
        "loop and export flamegraph/callgrind/chrome-trace views",
    )
    p.add_argument(
        "trace",
        help="trace directory to write profile.jsonl and the exports into",
    )
    p.add_argument(
        "--bytes", type=int, default=400_000,
        help="per-flow transfer size in bytes",
    )
    p.add_argument(
        "--reps", type=int, default=2, help="repetitions per sweep point"
    )
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument(
        "--jobs", "-j", type=int, default=None,
        help="worker processes (profiles merge deterministically; "
        "measurements are bit-identical either way)",
    )
    p.add_argument(
        "--top", type=int, default=10,
        help="how many hottest functions to print",
    )
    p.set_defaults(func=_cmd_obs_profile)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``greenenvy`` console script."""
    args = argparse.Namespace()
    # The one error boundary: every command raises, this maps to exits.
    try:
        build_parser().parse_args(argv, namespace=args)
        return args.func(args)
    except ObservabilityError as exc:
        # usage and trace/baseline I/O errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SweepAbortedError as exc:
        return _aborted_exit(exc, getattr(args, "drift_gate", None))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
