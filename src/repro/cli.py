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

The figure commands are the rows of :data:`repro.figures.specs.FIGURES`:
their options, driver, tables and paper claims are declared there, and
one handler here runs them all.

Exit codes: 0 success; 1 a failed check (a claim out of tolerance, lint
findings, drift) or a library error (``error: ...`` on stderr, no
traceback); 2 a usage error or an I/O error (trace, baseline, output
file); 3 a sweep cancelled mid-run (drift gate or abort file).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ObservabilityError, ReproError, SweepAbortedError

#: exit code for a sweep cancelled mid-run (drift gate or abort file),
#: distinct from failures (1) and usage/IO errors (2)
EXIT_ABORTED = 3


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


def _drift_hook(args: argparse.Namespace) -> Any:
    """``--abort-on-drift`` wiring: the sweep's ``on_result`` hook, or
    ``None``.

    The hook feeds every finished measurement, cache hits included, to
    a :class:`~repro.obs.live.DriftGate` as the fields its journal
    ``run_finished`` event records, and raises
    :class:`SweepAbortedError` on the first drift. It writes no abort
    flag: the flag is for processes that do not own the sweep. The gate
    is left on ``args.drift_gate`` for :func:`main` to print its drift
    table.
    """
    baseline = args.abort_on_drift
    if not baseline:
        return None
    from repro.obs.live import DriftGate

    gate = DriftGate(baseline, repetitions=args.reps)
    args.drift_gate = gate

    def on_result(index: int, item: Any, measurement: Any) -> None:
        gate.observe_event({
            "event": "run_finished",
            "scenario": item.scenario.name,
            **measurement.summary(),
        })
        if gate.reason is not None:
            raise SweepAbortedError(gate.reason)

    return on_result


@contextlib.contextmanager
def _launch(args: argparse.Namespace) -> Iterator[Dict[str, Any]]:
    """The launch keywords every sweep command passes its figure driver.

    ``jobs``/``cache_dir`` from the ``PARALLEL`` options of
    :mod:`repro.figures.specs`, the ``--trace`` observer (open for the
    duration of the ``with`` block, no-op without the flag), and
    ``on_result`` on the commands that take ``--abort-on-drift``.
    """
    from repro.obs.observer import observing

    launch: Dict[str, Any] = dict(jobs=args.jobs, cache_dir=args.cache_dir)
    if hasattr(args, "abort_on_drift"):
        launch["on_result"] = _drift_hook(args)
    with observing(args.trace) as obs:
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


def _cmd_figure(args: argparse.Namespace) -> int:
    """Every figure command: run its row's driver, print its output."""
    figure = args.figure
    if figure.launched:
        with _launch(args) as launch:
            result = figure.run(args, **launch)
    else:
        result = figure.run(args)
    for param in figure.params:
        value = getattr(args, param.name)
        if param.export is not None and value:
            print(param.export(result, value))
    text, verdicts = figure.render(result)
    print(text)
    if getattr(args, "trace", None):
        print(f"\ntrace written to {args.trace} "
              f"(greenenvy obs report {args.trace})")
    return 0 if all(verdicts) else 1


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
    from repro.obs.live import DriftGate, LiveSweepView, request_abort
    from repro.obs.progress import format_progress, progress_to_dict

    if args.abort_on_drift and not args.baseline:
        raise ObservabilityError("--abort-on-drift needs --baseline")

    gate = DriftGate(args.baseline) if args.baseline else None
    # one stop request at most, and only to a sweep still running: a
    # flag left beside a finished journal would stop the next run
    pull = bool(args.abort_on_drift)
    view = LiveSweepView(
        args.trace,
        on_event=gate.observe_event if gate is not None else None,
    )

    # Full-screen refresh only when someone is actually watching a
    # terminal; piped output gets one appended block per refresh.
    refresh = sys.stdout.isatty() and not args.once and not args.json
    while True:
        view.poll()
        progress = view.snapshot()
        if pull and gate is not None and gate.reason is not None:
            if not progress.complete:
                request_abort(args.trace, gate.reason)
            pull = False
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
    from repro.figures.specs import report_markdown, run_report

    text, verdicts = report_markdown(run_report(args.bytes, args.reps, args.seed))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({sum(verdicts)}/{len(verdicts)} claims ok)")
    else:
        print(text)
    return 0 if all(verdicts) else 1


def _cmd_policies(args: argparse.Namespace) -> int:
    from repro.sched import get_policy, policy_names

    names = policy_names()
    width = max(len(name) for name in names)
    for name in names:
        print(f"{name:<{width}}  {get_policy(name).description}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.energy.power_model import PowerModel
    from repro.figures.specs import CALIBRATION

    model = PowerModel()
    checked = [(claim, *claim.check(model)) for claim in CALIBRATION]
    width = max(len(claim.label) for claim in CALIBRATION)
    for claim, value, holds in checked:
        print(f"[{'ok ' if holds else 'FAIL'}] {claim.label:<{width}}  "
              f"expected {claim.paper}, got {value}")
    passed = all(holds for *_, holds in checked)
    print(f"\n{'all checks passed' if passed else 'CALIBRATION BROKEN'}")
    return 0 if passed else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import LintUsageError, iter_rules, render_text, run_lint

    if args.list_rules:
        width = max(len(rule.name) for rule in iter_rules())
        for rule in iter_rules():
            print(f"{rule.name:<{width}}  [{rule.family}] {rule.description}")
        return 0
    try:
        result = run_lint(args.paths)
    except LintUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_text(result))
    return 0 if result.clean else 1


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.savings import DatacenterCostModel
    from repro.energy.power_model import PowerModel
    from repro.sched import (
        FlowRequest,
        SchedulingContext,
        fluid_completions,
        fluid_energy_j,
        get_policy,
    )
    from repro.units import MILLION, gbps

    ctx = SchedulingContext(capacity_bps=gbps(10.0))
    requests = [FlowRequest(i, size) for i, size in enumerate(args.sizes)]
    power_w = PowerModel().smooth_sending_power_w
    fair, srpt = (get_policy(name).plan(requests, ctx) for name in ("fair", "srpt"))
    done = fluid_completions(requests, srpt, ctx.capacity_bps)
    order = sorted(range(len(requests)), key=done.__getitem__)
    print(f"schedule (serialized, SRPT): {' -> '.join(f'xfer-{i}' for i in order)}")
    fair_j = fluid_energy_j(requests, fair, ctx.capacity_bps, power_w)
    srpt_j = fluid_energy_j(requests, srpt, ctx.capacity_bps, power_w)
    saving = (fair_j - srpt_j) / fair_j
    print(f"fair-share energy:  {fair_j:.2f} J")
    print(f"serialized energy:  {srpt_j:.2f} J")
    print(f"saving:             {100 * saving:.1f}%")
    value = DatacenterCostModel().annual_savings_usd(saving)
    print(f"at 100k-rack scale: ${value / MILLION:.1f}M/year")
    return 0


def _transfer_size(spec: str) -> int:
    """A finite byte count >= 1; scientific notation ("1e9") is accepted
    as the usage examples promise."""
    try:
        size = float(spec)
    except ValueError:
        size = math.nan
    if not 1 <= size < math.inf:  # also rejects NaN
        # Not an ArgumentTypeError, for the reason _add_tolerance gives.
        raise ObservabilityError(f"bad transfer size {spec!r} (want a byte count >= 1)")
    return int(size)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="greenenvy",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.figures.specs import FIGURES, sizing

    for figure in FIGURES:
        p = sub.add_parser(figure.name, help=figure.help)
        for param in figure.params:
            param.add_to(p)
        p.set_defaults(func=_cmd_figure, figure=figure)

    p = sub.add_parser("theorem", help="verify Theorem 1 numerically")
    p.add_argument("--flows", type=int, default=2)
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=_cmd_theorem)

    p = sub.add_parser(
        "lint",
        help="simulator-correctness static analysis, every rule (units, "
        "determinism, cwnd sign, API hygiene)",
    )
    p.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="list available rules and exit",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("advise", help="green-schedule a batch of transfers")
    p.add_argument("sizes", nargs="+", type=_transfer_size, help="bytes per transfer")
    p.set_defaults(func=_cmd_advise)

    p = sub.add_parser(
        "report", help="run the quick end-to-end reproduction report"
    )
    for param in sizing(8_000_000):
        param.add_to(p)
    p.add_argument("--output", "-o", help="write markdown to a file")
    p.set_defaults(func=_cmd_report)

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
        help="on drift of a sweep still running, write the trace's "
        "abort flag file, which stops it (needs --baseline)",
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
    except (ObservabilityError, OSError) as exc:
        # usage errors and I/O errors (a trace, a baseline, an output file)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SweepAbortedError as exc:
        return _aborted_exit(exc, getattr(args, "drift_gate", None))
    except ReproError as exc:
        # a library refusal (bad parameters, an impossible run)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
