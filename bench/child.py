"""What runs inside one fresh interpreter: a probe, a measurement, a trace.

``bench/run.py`` spawns this module (``python -m bench.child MODE ...``,
``PYTHONHASHSEED=0``) and reads the JSON object on its last output line.
One interpreter, one thread, one workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.figures.fig1 import run_fig1
from repro.figures.grid import run_cca_mtu_grid
from repro.obs.report import percentile

from bench.calibrate import SpeedSampler, calibrated
from bench.metrics import LAYERS, PER_LAYER
from bench.trace import (
    COUNTED_CALLS,
    LayerProfile,
    ProfilingScope,
    Tracer,
    TracingScope,
    check_counted_calls,
    self_time_by_name,
)
from bench.workloads import (
    FULL,
    SMOKE,
    WORKLOADS,
    Scope,
    Sizes,
    Workload,
    evaluate,
    nominal_packets,
    sim_digest,
)

OUT = Path(__file__).resolve().parent / "out"


class Iteration:
    """One checked iteration of a workload."""

    def __init__(self, workload: Workload, seed: int, sizes: Sizes, scope: Scope):
        self.scope = scope
        self.outcome = None
        self.digest: Optional[str] = None
        self.packets = 0
        try:
            self.outcome = workload.run(seed, sizes, scope)
        except Exception:
            # the item raised: every flow it would have carried failed
            self.attempted = self.failed = workload.operations(sizes)
            self.problems = [traceback.format_exc()]
            return
        self.attempted, self.failed, self.problems = evaluate(self.outcome)
        self.digest = sim_digest(self.outcome.items)
        self.packets = nominal_packets(self.outcome.items)


def _setting(args: argparse.Namespace) -> "tuple[Workload, Sizes, Path]":
    sizes = SMOKE if args.smoke else FULL
    return WORKLOADS[args.workload], sizes, OUT / f"tmp-{os.getpid()}"


def _warm_up(workload: Workload, seed: int, tmp: Path) -> None:
    """One iteration at smoke size: every code path runs once, lazy
    imports and caches settle, at a fraction of an iteration's cost."""
    Iteration(workload, seed, SMOKE, Scope(tmp, Tracer()))


def probe(args: argparse.Namespace) -> Dict[str, Any]:
    """Build the workload's first scenario and stop before its first event."""
    workload, sizes, _tmp = _setting(args)
    sim = workload.build_first(args.seed, sizes)
    if sim.pending_events < 1:
        raise AssertionError("first scenario has nothing to dispatch")
    return {"pending_events": sim.pending_events}


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    """Timed iterations for ``--seconds`` (or exactly ``--iterations``)."""
    workload, sizes, tmp = _setting(args)
    samples: List[Dict[str, float]] = []
    attempted = failed = packets = 0
    problems: List[str] = []
    digests = set()
    try:
        _warm_up(workload, args.seed, tmp)
        sampler = SpeedSampler()
        deadline = time.perf_counter() + args.seconds
        while True:
            gc.collect()
            iteration = Iteration(
                workload, args.seed, sizes, Scope(tmp, Tracer(), sampler)
            )
            attempted += iteration.attempted
            failed += iteration.failed
            problems += iteration.problems
            if iteration.outcome is None:
                break
            digests.add(iteration.digest)
            packets = iteration.packets
            samples.append(
                {
                    "raw_wall_s": iteration.outcome.wall_s,
                    "cpu_s": iteration.outcome.cpu_s,
                    "calib_s": sampler.mean_slice_s,
                    "wall_s": calibrated(
                        iteration.outcome.wall_s, sampler.mean_slice_s
                    ),
                }
            )
            if args.iterations:
                if len(samples) >= args.iterations:
                    break
            elif time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if len(digests) > 1:
        problems.append(f"sim_digest changed between iterations: {sorted(digests)}")
    return {
        "samples": samples,
        "attempted": attempted,
        "failed": attempted if len(digests) > 1 else failed,
        "problems": problems,
        "sim_digest": digests.pop() if len(digests) == 1 else None,
        "packets": packets,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(args: argparse.Namespace) -> Dict[str, Any]:
    """Three passes over one iteration, then the isolated layer benchmarks.

    * plain: as the end-to-end runs do it — the base for overheads and
      for ``sim.events_per_s``;
    * spans: the library's phases recorded through the observer
      protocol — phase times, item times, the event counts the harness
      reports, cache and journal figures;
    * profile: under ``cProfile`` with *no* observer, so the code path
      is the untraced one — self time and exact call counts per layer.
    """
    # only the traced visit pays for importing every layer's pieces
    from bench import layers

    check_counted_calls()
    workload, sizes, tmp = _setting(args)
    metrics = {metric.name: 0.0 for metric in PER_LAYER}
    try:
        _warm_up(workload, args.seed, tmp)
        gc.collect()
        sampler = SpeedSampler()
        plain = Iteration(workload, args.seed, sizes, Scope(tmp, Tracer(), sampler))
        gc.collect()
        spans = Iteration(workload, args.seed, sizes, TracingScope(tmp, Tracer()))
        gc.collect()
        profile_run = Iteration(
            workload, args.seed, sizes, ProfilingScope(tmp, Tracer())
        )
        profile = profile_run.scope.profile()
        passes = (plain, spans, profile_run)
        problems = [problem for p in passes for problem in p.problems]
        if not any(p.failed for p in passes):
            if len({p.digest for p in passes}) != 1:
                problems.append("sim_digest differs between the trace passes")
            traced_wall = profile_run.outcome.wall_s
            unattributed = abs(sum(profile.self_s.values()) - traced_wall)
            if unattributed > 0.02 * traced_wall:
                problems.append(
                    f"per-layer self time misses the traced wall by "
                    f"{unattributed:.3f} of {traced_wall:.3f} s"
                )
            metrics["bench.calib_s"] = sampler.mean_slice_s
            metrics.update(_workload_metrics(plain, spans, profile_run, profile))
            metrics.update(_extra_metrics(args, sizes, plain, spans))
            metrics.update(layers.run_all(tmp, scale=0.1 if args.smoke else 1.0))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.spans:
        path = Path(args.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(spans.scope.tracer.to_json()), encoding="utf-8")
    attempted = sum(p.attempted for p in passes)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "problems": problems,
        "sim_digest": plain.digest,
    }


def _workload_metrics(
    plain: Iteration, spans: Iteration, profile_run: Iteration, profile: LayerProfile
) -> Dict[str, float]:
    """The per-layer metrics every workload has."""
    metrics: Dict[str, float] = {}
    plain_wall = plain.outcome.wall_s
    packets = plain.packets

    # profile pass: self time, calls, the counted functions
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = profile.self_s[layer]
        metrics[f"{layer}.self_share"] = profile.self_s[layer] / profile.total_s
        metrics[f"{layer}.calls"] = float(profile.calls[layer])
    for name in COUNTED_CALLS:
        if name != "apps.complete_checks":  # reported per event, below
            metrics[name] = float(profile.count(name))
    acks = profile.count("tcp.acks_processed")
    metrics["cc.callbacks_per_ack"] = (
        profile.calls_matching("cc", "on_") / acks if acks else 0.0
    )
    sent = profile.count("tcp.segments_sent")
    metrics["tcp.goodput_ratio"] = packets / sent if sent else 0.0
    metrics["bench.trace_overhead"] = profile_run.outcome.wall_s / plain_wall

    # spans pass: what the harness reports about itself
    recorded = spans.scope.tracer.spans
    loops = [span for span in recorded if span.name == "sim_loop"]
    executed = sum(span.fields["events_executed"] for span in loops)
    left_in_heap = sum(
        span.fields["pending_events"] + span.fields["dead_in_queue"]
        for span in loops
    )
    pushes = profile.count("sim.heap_pushes")
    metrics["sim.events_executed"] = float(executed)
    metrics["sim.live_pop_ratio"] = executed / (pushes - left_in_heap)
    metrics["sim.pushes_per_pkt"] = pushes / packets
    metrics["sim.events_per_s"] = executed / plain_wall
    metrics["apps.complete_checks_per_event"] = (
        profile.count("apps.complete_checks") / executed
    )
    own = self_time_by_name(recorded)
    metrics["harness.build_s"] = own["build"]
    metrics["harness.loop_s"] = own["sim_loop"]
    metrics["harness.measure_s"] = own["measure"]
    item_ms = [span.duration * 1e3 for span in recorded if span.name == "item"]
    metrics["harness.item_wall_ms.p50"] = percentile(item_ms, 50.0)
    metrics["harness.item_wall_ms.p90"] = percentile(item_ms, 90.0)
    metrics["harness.raw_wall_s"] = plain_wall
    metrics["harness.cpu_s"] = plain.outcome.cpu_s

    # the measurements themselves
    cold = [i.measurement for i in plain.outcome.items if i.replay_of is None]
    metrics["net.drops"] = float(sum(m.bottleneck_drops for m in cold))
    metrics["net.ecn_marks"] = float(sum(m.ecn_marks for m in cold))
    metrics["tcp.retransmissions"] = float(sum(m.total_retransmissions for m in cold))
    metrics["energy.total_j"] = sum(m.energy_j for m in cold)
    return metrics


def _extra_metrics(
    args: argparse.Namespace, sizes: Sizes, plain: Iteration, spans: Iteration
) -> Dict[str, float]:
    """Metrics only one workload has; they read 0 on the others."""
    metrics: Dict[str, float] = {}
    info = plain.outcome.info
    plain_wall = plain.outcome.wall_s
    if args.workload == "dumbbell_sweep":
        metrics["energy.fsti_savings_pct"] = info["fsti_savings_pct"]
        # the paper's full-speed-then-idle saving (section 4.1)
        metrics["energy.savings_err_pp"] = abs(info["fsti_savings_pct"] - 16.0)
        # Informational: two busy processes on two shared cores spread
        # 29 %, so parallel wall time is no end-to-end metric.
        started = time.perf_counter()
        run_fig1(
            transfer_bytes=sizes.dumbbell_bytes,
            repetitions=1,
            base_seed=args.seed,
            jobs=2,
        )
        metrics["harness.jobs2_wall_s"] = time.perf_counter() - started
        metrics["harness.jobs2_speedup"] = plain_wall / metrics["harness.jobs2_wall_s"]
    if args.workload == "cca_mtu_grid":
        # none of these spans has children, so self time is duration
        by_name = self_time_by_name(plain.scope.tracer.spans)
        puts = self_time_by_name(spans.scope.tracer.spans)["cache_put"]
        metrics["harness.cache_put_ms_per_item"] = puts * 1e3 / info["cold_items"]
        metrics["harness.cache_get_ms_per_item"] = (
            by_name["replay"] * 1e3 / info["replayed_items"]
        )
        metrics["harness.cache_hit_ratio"] = info["cache_hit_ratio"]
        metrics["harness.cache_bytes_per_item"] = info["cache_bytes_per_item"]
        for name in (
            "journal_events", "journal_bytes", "telemetry_records", "telemetry_bytes",
        ):
            metrics[f"obs.{name}"] = info[name]
        metrics["obs.close_s"] = by_name["close"]
        metrics["obs.report_s"] = by_name["report"]
        started = time.perf_counter()
        run_cca_mtu_grid(
            transfer_bytes=sizes.grid_bytes,
            repetitions=sizes.grid_reps,
            base_seed=args.seed,
        )
        untraced_cold = time.perf_counter() - started
        metrics["obs.trace_overhead"] = by_name["sweep"] / untraced_cold
    return metrics


MODES = {"probe": probe, "measure": measure, "trace": trace}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--iterations", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    print(json.dumps(MODES[args.mode](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
