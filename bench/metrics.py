"""The benchmark's metric tables and the statistics every report uses.

``BENCHMARK.json`` lists exactly these names; ``bench/tests`` hold the
two in step. The per-layer table also records what ``BENCHMARK.json``'s
schema has no room for: which end-to-end metric a layer's metric (its
name starts with the layer) should move, on which workload (written down
*before* anything is measured, see README "How the metrics interact").
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence

#: layer = package under src/repro/
LAYERS = ("sim", "net", "tcp", "cc", "energy", "apps", "sched", "harness", "obs")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: share of the parent's median the metric may worsen by
    bound: float
    definition: str


END_TO_END: Sequence[EndToEnd] = (
    EndToEnd(
        "wall_s", "s", "lower", 0.25,
        "calibrated seconds for the workload's whole public call(s): "
        "median over the timed iterations of one run",
    ),
    EndToEnd(
        "pkts_per_s", "1/s", "higher", 0.25,
        "data segments the workload definition transfers "
        "(sum of ceil(flow bytes / mss(mtu))) per calibrated second",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "calibrated seconds from spawning a fresh interpreter to the "
        "workload's first scenario built and ready to dispatch: median "
        "of the run's probes",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.10,
        "ru_maxrss of the measuring interpreter at exit",
    ),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: exact (repeats run to run), time, rate, ratio, size, or simulated
    kind: str
    #: end-to-end metric it should move, and on which workload
    moves: str
    on: str


def _profile_rows() -> List[PerLayer]:
    rows = []
    for layer in LAYERS:
        rows += [
            PerLayer(f"{layer}.self_s", "s", "lower", "time", "wall_s", "all"),
            PerLayer(f"{layer}.self_share", "ratio", "lower", "ratio", "wall_s", "all"),
            PerLayer(f"{layer}.calls", "count", "lower", "exact", "wall_s", "all"),
        ]
    return rows


_D, _L, _F, _G = "dumbbell_sweep", "lossy_mix", "fabric_datacenter", "cca_mtu_grid"

PER_LAYER: Sequence[PerLayer] = tuple(
    _profile_rows()
    + [
        PerLayer("sim.events_executed", "count", "lower", "exact", "wall_s", f"{_D}, {_L}"),
        PerLayer("sim.heap_pushes", "count", "lower", "exact", "wall_s", f"{_D}, {_L}"),
        PerLayer("sim.cancels", "count", "lower", "exact", "wall_s", _L),
        PerLayer("sim.live_pop_ratio", "ratio", "higher", "exact", "wall_s", _L),
        PerLayer("sim.pushes_per_pkt", "1/pkt", "lower", "exact", "pkts_per_s", _D),
        PerLayer("sim.events_per_s", "1/s", "higher", "rate", "pkts_per_s", f"{_D}, {_G}"),
        PerLayer("sim.kernel_events_per_s", "1/s", "higher", "rate", "pkts_per_s", f"{_D}, {_G}"),
        PerLayer("net.pkts_forwarded", "count", "lower", "exact", "wall_s", f"{_D}, {_F}"),
        PerLayer("net.drops", "count", "lower", "exact", "wall_s", _L),
        PerLayer("net.ecn_marks", "count", "lower", "exact", "wall_s", _F),
        PerLayer("net.link_pkts_per_s", "1/s", "higher", "rate", "wall_s", f"{_D}, {_F}"),
        PerLayer("tcp.segments_sent", "count", "lower", "exact", "wall_s", _L),
        PerLayer("tcp.retransmissions", "count", "lower", "exact", "wall_s", _L),
        PerLayer("tcp.acks_processed", "count", "lower", "exact", "wall_s", _L),
        PerLayer("tcp.rto_fired", "count", "lower", "exact", "wall_s", _L),
        PerLayer("tcp.goodput_ratio", "ratio", "higher", "exact", "wall_s", _L),
        PerLayer("tcp.loopback_segs_per_s", "1/s", "higher", "rate", "wall_s", _G),
        PerLayer("tcp.rangeset_ops_per_s", "1/s", "higher", "rate", "wall_s", _L),
        PerLayer("cc.callbacks_per_ack", "ratio", "lower", "exact", "wall_s", f"{_G}, {_L}"),
        PerLayer("cc.on_ack_ns.cubic", "ns", "lower", "time", "wall_s", f"{_G}, {_L}"),
        PerLayer("cc.on_ack_ns.bbr", "ns", "lower", "time", "wall_s", f"{_G}, {_L}"),
        PerLayer("cc.on_ack_ns.dctcp", "ns", "lower", "time", "wall_s", _F),
        PerLayer("cc.on_ack_ns.reno", "ns", "lower", "time", "wall_s", f"{_G}, {_L}"),
        PerLayer("energy.samples", "count", "lower", "exact", "wall_s", _F),
        PerLayer("energy.power_evals_per_s", "1/s", "higher", "rate", "wall_s", _F),
        PerLayer("energy.total_j", "J", "lower", "simulated", "none", "all"),
        PerLayer("energy.fsti_savings_pct", "%", "higher", "simulated", "none", _D),
        PerLayer("energy.savings_err_pp", "pp", "lower", "simulated", "none", _D),
        PerLayer("apps.complete_checks_per_event", "ratio", "lower", "exact", "wall_s", _F),
        PerLayer("apps.workload_gen_flows_per_s", "1/s", "higher", "rate", "setup_s", _F),
        PerLayer("sched.plan_flows_per_s.fair", "1/s", "higher", "rate", "setup_s", _F),
        PerLayer("sched.plan_flows_per_s.srpt", "1/s", "higher", "rate", "setup_s", _F),
        PerLayer("harness.build_s", "s", "lower", "time", "wall_s, setup_s", _F),
        PerLayer("harness.loop_s", "s", "lower", "time", "wall_s", "all"),
        PerLayer("harness.measure_s", "s", "lower", "time", "wall_s", "all"),
        PerLayer("harness.item_wall_ms.p50", "ms", "lower", "time", "wall_s", "all"),
        PerLayer("harness.item_wall_ms.p90", "ms", "lower", "time", "wall_s", "all"),
        PerLayer("harness.raw_wall_s", "s", "lower", "time", "wall_s", "all"),
        PerLayer("harness.cpu_s", "s", "lower", "time", "wall_s", "all"),
        PerLayer("harness.cache_put_ms_per_item", "ms", "lower", "time", "wall_s", _G),
        PerLayer("harness.cache_get_ms_per_item", "ms", "lower", "time", "wall_s", _G),
        PerLayer("harness.cache_hit_ratio", "ratio", "higher", "exact", "wall_s", _G),
        PerLayer("harness.cache_bytes_per_item", "B", "lower", "exact", "wall_s", _G),
        PerLayer("harness.key_us", "us", "lower", "time", "wall_s", _G),
        PerLayer("harness.jobs2_wall_s", "s", "lower", "time", "none", _D),
        PerLayer("harness.jobs2_speedup", "ratio", "higher", "ratio", "none", _D),
        PerLayer("obs.journal_events", "count", "lower", "exact", "wall_s", _G),
        PerLayer("obs.journal_bytes", "B", "lower", "size", "wall_s", _G),
        PerLayer("obs.telemetry_records", "count", "lower", "exact", "peak_rss_mb", _G),
        PerLayer("obs.telemetry_bytes", "B", "lower", "exact", "peak_rss_mb", _G),
        PerLayer("obs.close_s", "s", "lower", "time", "wall_s", _G),
        PerLayer("obs.report_s", "s", "lower", "time", "wall_s", _G),
        PerLayer("obs.trace_overhead", "ratio", "lower", "ratio", "wall_s", _G),
        PerLayer("obs.journal_events_per_s", "1/s", "higher", "rate", "wall_s", _G),
        PerLayer("bench.trace_overhead", "ratio", "lower", "ratio", "none", "all"),
        PerLayer("bench.calib_s", "s", "lower", "time", "none", "all"),
    ]
)

#: per-layer counters that must repeat exactly between two runs of one
#: commit at one seed; ``compare`` lists every one that differs
EXACT_COUNTERS = tuple(m.name for m in PER_LAYER if m.kind == "exact")


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and sample count of one metric.

    No tail percentile: the highest one worth printing needs ten
    samples beyond it, and a run has nine timed iterations per workload.
    """
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
    }
