"""The four benchmark workloads, their frozen sizes and their checks.

Every workload drives ``repro`` through the public entry points a user
calls (``run_fig1``, ``run_repeated``, ``run_once``,
``run_cca_mtu_grid``) and hands back the measurements so the caller can
check them. Sizes are measured, not guessed (see README "How the sizes
were chosen") and frozen here: change them and every committed reading
stops being comparable.

What ``--seed`` changes, per workload, is chosen so that the *amount of
simulated work* does not depend on it — the benchmark's readings at ten
different seeds must agree to within a third of each metric's bound:

* ``dumbbell_sweep``, ``cca_mtu_grid``: the seed is the sweep's
  ``base_seed`` (start jitter and power-measurement noise). Without
  loss the packet dynamics barely move.
* ``lossy_mix``: ``base_seed`` too, but with ``start_jitter_s=0`` so
  the seed reaches only the power-noise stream. With jittered starts
  the drop pattern is chaotic: at equal event counts (+-2 %) wall time
  spread 29 % across ten seeds, because a flow that sits out an RTO
  stretches the run with power-sampling events.
* ``fabric_datacenter``: the flow set comes from the generator at the
  frozen ``FABRIC_GENERATOR_SEED`` and the seed stretches the arrival
  times by up to 1 % through ``target_load``. Feeding the seed to the
  generator instead moves wall time 2x (seed 0: 4.2 s, seed 1: 2.2 s):
  the run loop's ``all(s.complete ...)`` poll short-circuits on the
  first unfinished session, so its cost hangs on *where* the long
  flows fall in arrival order.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional

from bench.calibrate import SpeedSampler

from repro.apps.iperf import IperfSession
from repro.apps.workload import FabricWorkload, generate_fabric_workload
from repro.core.allocation import FAIR_PLAN_NAME, FSTI_PLAN_NAME, fig1_allocations
from repro.energy.cpu import CpuModel
from repro.energy.meter import EnergyMeter
from repro.figures.fig1 import DEFAULT_CAPACITY_BPS, run_fig1
from repro.figures.grid import DEFAULT_MTUS, run_cca_mtu_grid
from repro.cc.registry import PAPER_ALGORITHMS
from repro.harness import (
    FabricScenario,
    FlowSpec,
    ResultCache,
    RunMeasurement,
    Scenario,
    measurement_to_dict,
    run_once,
    run_repeated,
    scenario_from_plan,
)
from repro.harness import fabric as fabric_runner
from repro.net.packet import mss_for_mtu
from repro.net.topology import (
    Fabric,
    FabricConfig,
    TestbedConfig,
    build_leaf_spine,
    build_testbed,
)
from repro.obs import (
    Observer,
    TracingObserver,
    read_journal,
    read_telemetry,
    summarize_journal,
)
from repro.obs.attrib import attribute_measurement
from repro.sched import FlowRequest, SchedulingContext, get_policy
from repro.sim.engine import Simulator
from repro.units import BITS_PER_BYTE

if TYPE_CHECKING:
    from bench.trace import Tracer

#: |sum(per-flow attribution) - measured joules| the repo's own
#: additivity tests allow (tests/obs/test_attrib.py)
ADDITIVITY_TOL = 1e-9

#: the fabric workload's flow set never changes (see module docstring)
FABRIC_GENERATOR_SEED = 0

LOSSY_CCAS = (
    "cubic", "reno", "bbr", "bbr2", "vegas", "westwood", "highspeed", "scalable",
)


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; ``FULL`` is the benchmark, ``SMOKE`` only a check."""

    dumbbell_bytes: int
    lossy_bytes: int
    lossy_reps: int
    fabric_flows: int
    grid_bytes: int
    grid_reps: int
    grid_replays: int = 4
    #: whether Theorem 1's shape is checked on the dumbbell sweep; below
    #: ~2 MB per flow slow start dominates and the fair split is cheapest
    theorem_shape: bool = True


FULL = Sizes(
    dumbbell_bytes=12_500_000,
    lossy_bytes=8_000_000,
    lossy_reps=3,
    fabric_flows=400,
    grid_bytes=1_000_000,
    grid_reps=2,
)
SMOKE = Sizes(
    dumbbell_bytes=400_000,
    lossy_bytes=500_000,
    lossy_reps=1,
    fabric_flows=60,
    grid_bytes=200_000,
    grid_reps=1,
    theorem_shape=False,
)


# -- what a workload hands back ---------------------------------------


@dataclass
class Item:
    """One work item's measurement plus what its definition promised."""

    measurement: RunMeasurement
    mtu_bytes: int
    #: bytes each flow must have transferred, in flow order
    expected_bytes: List[int]
    #: a cold measurement a replayed item must equal bit for bit
    replay_of: Optional[RunMeasurement] = None


@dataclass
class Outcome:
    """Everything one iteration of a workload produced."""

    items: List[Item]
    #: wall and CPU seconds of the public call(s) alone
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: workload-level checks that failed (each fails the whole iteration)
    problems: List[str] = field(default_factory=list)
    #: workload-specific readings for the per-layer report
    info: Dict[str, float] = field(default_factory=dict)


class Scope:
    """What a workload asks of its caller: spans, observers, scratch space.

    The handful of spans a workload opens itself (the timed iteration,
    each public call, close/replay/report) are always recorded — they
    cost microseconds. This scope hands the library no observer beyond
    what a workload's definition names; the traced run's subclass
    (:mod:`bench.trace`) hands out span-recording observers instead, and
    the workload code is the same either way.
    """

    #: observer for calls whose definition says "no observer"
    observer: Optional[Observer] = None

    def __init__(
        self,
        tmp_root: Path,
        tracer: "Tracer",
        sampler: Optional[SpeedSampler] = None,
    ):
        self.tmp_root = tmp_root
        self.tracer = tracer
        #: samples machine speed during the timed region, if given
        self.sampler = sampler
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def span(self, name: str, **fields: Any) -> contextlib.AbstractContextManager:
        return self.tracer.span(name, **fields)

    def tracing_observer(self, trace_dir: Path) -> TracingObserver:
        """The observer ``cca_mtu_grid``'s definition names."""
        return TracingObserver(trace_dir)

    @contextlib.contextmanager
    def timed(self) -> Iterator[None]:
        """The timed region: the public call(s), nothing of the bench's.

        Time the speed sampler's slices took inside it is taken off.
        """
        sampler = self.sampler or contextlib.nullcontext()
        with self.span("iteration"):
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            try:
                with sampler:
                    yield
            finally:
                spent = self.sampler.spent_s if self.sampler else 0.0
                self.wall_s += time.perf_counter() - wall0 - spent
                self.cpu_s += time.process_time() - cpu0 - spent

    def tmpdir(self) -> Path:
        """A fresh scratch directory inside the checkout."""
        path = self.tmp_root / "iteration"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def outcome(self, items: List[Item], **kwargs: Any) -> Outcome:
        return Outcome(items=items, wall_s=self.wall_s, cpu_s=self.cpu_s, **kwargs)


# -- scenarios --------------------------------------------------------


def lossy_scenario(sizes: Sizes) -> Scenario:
    """Eight CCAs through a five-packet drop-tail buffer, no ECN."""
    return Scenario(
        name="lossy_mix",
        mtu_bytes=9000,
        buffer_bytes=45_000,
        ecn_threshold_bytes=None,
        start_jitter_s=0.0,
        flows=[FlowSpec(total_bytes=sizes.lossy_bytes, cca=cca) for cca in LOSSY_CCAS],
    )


def fabric_scenario(seed: int, sizes: Sizes) -> FabricScenario:
    """400 DCTCP sessions over an 8-leaf, 2-spine, 64-host fabric."""
    return FabricScenario(
        name="fabric_datacenter",
        cca="dctcp",
        policy="fair",
        n_flows=sizes.fabric_flows,
        mix="datacenter",
        leaves=8,
        spines=2,
        hosts_per_leaf=8,
        target_load=0.3 * (1.0 + 1e-5 * (seed % 1000)),
    )


def _fabric_config(scenario: FabricScenario) -> FabricConfig:
    return FabricConfig(
        leaves=scenario.leaves,
        spines=scenario.spines,
        hosts_per_leaf=scenario.hosts_per_leaf,
        mtu_bytes=scenario.mtu_bytes,
        ecn_threshold_bytes=scenario.ecn_threshold_bytes,
    )


def _generate_flows(scenario: FabricScenario, fabric: Fabric) -> FabricWorkload:
    """The scenario's flow set, from the public generator."""
    return generate_fabric_workload(
        hosts=[host.name for host in fabric.hosts],
        rack_of=fabric.host_rack,
        mix=scenario.mix,
        n_flows=scenario.n_flows,
        target_load=scenario.target_load,
        host_capacity_bps=fabric.config.host_link_rate_bps,
        rack_local_fraction=scenario.rack_local_fraction,
        incast_fraction=scenario.incast_fraction,
        incast_fan_in=scenario.incast_fan_in,
        seed=FABRIC_GENERATOR_SEED,
    )


@contextlib.contextmanager
def _captured_fabrics() -> Iterator[List[Fabric]]:
    """Keep the fabrics the fabric runner builds, for the ledger check.

    ``run_once`` returns a measurement, not the fabric, and the public
    ``Fabric.conservation()`` is the only packet ledger there is — so
    the runner's reference to the public builder is wrapped for the
    length of the call.
    """
    captured: List[Fabric] = []
    original = fabric_runner.build_leaf_spine

    def capturing(sim: Simulator, config: FabricConfig) -> Fabric:
        fabric = original(sim, config)
        captured.append(fabric)
        return fabric

    fabric_runner.build_leaf_spine = capturing
    try:
        yield captured
    finally:
        fabric_runner.build_leaf_spine = original


# -- the workloads ----------------------------------------------------


def dumbbell_sweep(seed: int, sizes: Sizes, scope: Scope) -> Outcome:
    with scope.timed(), scope.span("sweep", call="run_fig1"):
        fig = run_fig1(
            transfer_bytes=sizes.dumbbell_bytes,
            repetitions=1,
            base_seed=seed,
            observer=scope.observer,
        )
    items = [
        Item(run, 9000, [sizes.dumbbell_bytes] * 2)
        for point in fig.points
        for run in point.result.runs
    ]
    energy = {point.label: point.mean_energy_j for point in fig.points}
    problems = []
    if sizes.theorem_shape:
        if max(energy, key=energy.__getitem__) != FAIR_PLAN_NAME:
            problems.append("the fair split is not the most expensive point")
        if min(energy, key=energy.__getitem__) != FSTI_PLAN_NAME:
            problems.append("full-speed-then-idle is not the cheapest point")
    savings = fig.savings_vs_fair_percent(fig.fsti_point)
    return scope.outcome(items, problems=problems, info={"fsti_savings_pct": savings})


def lossy_mix(seed: int, sizes: Sizes, scope: Scope) -> Outcome:
    scenario = lossy_scenario(sizes)
    with scope.timed(), scope.span("sweep", call="run_repeated"):
        result = run_repeated(
            scenario,
            repetitions=sizes.lossy_reps,
            base_seed=seed,
            observer=scope.observer,
        )
    expected = [flow.total_bytes for flow in scenario.flows]
    items = [Item(run, scenario.mtu_bytes, expected) for run in result.runs]
    problems = []
    for run in result.runs:
        if run.bottleneck_drops <= 0 or run.total_retransmissions <= 0:
            problems.append(
                f"seed {run.seed} stayed on the fast path "
                f"(drops={run.bottleneck_drops}, "
                f"retransmissions={run.total_retransmissions})"
            )
    return scope.outcome(items, problems=problems)


def fabric_datacenter(seed: int, sizes: Sizes, scope: Scope) -> Outcome:
    scenario = fabric_scenario(seed, sizes)
    with _captured_fabrics() as fabrics:
        with scope.timed(), scope.span(
            "item", scenario=scenario.name, seed=FABRIC_GENERATOR_SEED
        ):
            measurement = run_once(
                scenario, seed=FABRIC_GENERATOR_SEED, observer=scope.observer
            )
    problems = []
    if measurement.ecn_marks <= 0:
        problems.append("no ECN marks: the fabric never congested")
    (fabric,) = fabrics
    # The ledger balances once in-flight ACKs have landed; the meter
    # stopped every sampler, so draining ends.
    fabric.sim.run()
    residual = fabric.conservation().residual
    if residual != 0:
        problems.append(f"conservation ledger off by {residual} packets")
    expected = [flow.size_bytes for flow in _generate_flows(scenario, fabric).flows]
    return scope.outcome(
        [Item(measurement, scenario.mtu_bytes, expected)], problems=problems
    )


def cca_mtu_grid(seed: int, sizes: Sizes, scope: Scope) -> Outcome:
    tmp = scope.tmpdir()
    cache = ResultCache(tmp / "cache")
    trace_dir = tmp / "trace"

    def grid(**kwargs: Any):
        return run_cca_mtu_grid(
            transfer_bytes=sizes.grid_bytes,
            repetitions=sizes.grid_reps,
            base_seed=seed,
            cache_dir=cache,
            **kwargs,
        )

    observer = scope.tracing_observer(trace_dir)
    with scope.timed():
        with scope.span("sweep", call="run_cca_mtu_grid", cache="cold"):
            cold = grid(observer=observer)
        with scope.span("close"):
            observer.close()
        replays = []
        for index in range(sizes.grid_replays):
            with scope.span("replay", index=index):
                replays.append(grid())
        with scope.span("report"):
            journal = read_journal(trace_dir)
            summary = summarize_journal(journal)
            telemetry = read_telemetry(trace_dir)

    def cells(result) -> List[Item]:
        return [
            Item(run, cell.mtu_bytes, [sizes.grid_bytes])
            for cell in result.cells
            for run in cell.result.runs
        ]

    items = cells(cold)
    n_cold = len(items)
    for replay in replays:
        for original, item in zip(items[:n_cold], cells(replay)):
            item.replay_of = original.measurement
            items.append(item)
    problems = []
    if cache.misses != n_cold or cache.hits != n_cold * len(replays):
        problems.append(
            f"replays missed the cache (hits={cache.hits}, misses={cache.misses})"
        )
    if not journal or journal[-1]["event"] != "sweep_finished" or not summary.complete:
        problems.append("journal does not end in its terminal event")
    if not telemetry:
        problems.append("telemetry is empty")
    info = {
        "journal_events": float(len(journal)),
        "journal_bytes": float(_tree_bytes(trace_dir, "journal*.jsonl")),
        "telemetry_records": float(len(telemetry)),
        "telemetry_bytes": float(_tree_bytes(trace_dir, "telemetry*.jsonl")),
        "cache_bytes_per_item": _tree_bytes(cache.root, "*/*.json") / n_cold,
        "cache_hit_ratio": cache.hits / max(1, n_cold * len(replays)),
        "cold_items": float(n_cold),
        "replayed_items": float(n_cold * len(replays)),
    }
    shutil.rmtree(tmp, ignore_errors=True)
    return scope.outcome(items, problems=problems, info=info)


def _tree_bytes(root: Path, pattern: str) -> int:
    return sum(path.stat().st_size for path in root.glob(pattern))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run: Callable[[int, Sizes, Scope], Outcome]
    #: flows (operations) one iteration attempts, for when it raises
    operations: Callable[[Sizes], int]
    #: builds the first scenario through public constructors (setup_s)
    build_first: Callable[[int, Sizes], Simulator]


def _grid_operations(sizes: Sizes) -> int:
    cells = len(PAPER_ALGORITHMS) * len(DEFAULT_MTUS) * sizes.grid_reps
    return cells * (1 + sizes.grid_replays)


# -- set-up probes: first scenario, public constructors only ----------


def _build_link_scenario(scenario: Scenario) -> Simulator:
    sim = Simulator()
    config = dict(
        mtu_bytes=scenario.mtu_bytes,
        ecn_threshold_bytes=scenario.ecn_threshold_bytes,
    )
    if scenario.buffer_bytes is not None:
        config["buffer_bytes"] = scenario.buffer_bytes
    testbed = build_testbed(sim, TestbedConfig(**config))
    packages = scenario.packages or max(2, len(scenario.flows))
    cpu = CpuModel(
        sim,
        testbed.sender,
        packages=packages,
        sample_interval_s=scenario.sample_interval_s,
    )
    for index, flow in enumerate(scenario.flows):
        session = IperfSession(
            testbed,
            total_bytes=flow.total_bytes,
            cca=flow.cca,
            target_bitrate_bps=flow.target_rate_bps,
            start_time=flow.start_time_s,
            flow_id=index + 1,
        )
        cpu.pin_flow(session.flow_id, index % packages)
    EnergyMeter(sim, [cpu]).start()
    return sim


def _first_dumbbell(seed: int, sizes: Sizes) -> Simulator:
    plan = next(iter(fig1_allocations(sizes.dumbbell_bytes, DEFAULT_CAPACITY_BPS)))
    return _build_link_scenario(scenario_from_plan(f"fig1-{plan.name}", plan))


def _first_lossy(seed: int, sizes: Sizes) -> Simulator:
    return _build_link_scenario(lossy_scenario(sizes))


def _first_fabric(seed: int, sizes: Sizes) -> Simulator:
    scenario = fabric_scenario(seed, sizes)
    sim = Simulator()
    fabric = build_leaf_spine(sim, _fabric_config(scenario))
    rate = fabric.config.host_link_rate_bps
    workload = _generate_flows(scenario, fabric)
    requests = [
        FlowRequest(
            index=index,
            size_bytes=flow.size_bytes,
            arrival_s=flow.start_time_s,
            src=flow.src,
            dst=flow.dst,
            deadline_s=flow.start_time_s
            + scenario.deadline_slack * flow.size_bytes * BITS_PER_BYTE / rate,
        )
        for index, flow in enumerate(workload.flows)
    ]
    plan = get_policy(scenario.policy).plan(
        requests,
        SchedulingContext(
            capacity_bps=rate,
            offered_load=workload.offered_load,
            supports_priority=False,
        ),
    )
    models = [
        CpuModel(sim, host, packages=1, sample_interval_s=scenario.sample_interval_s)
        for host in fabric.hosts
    ]
    for index, flow in enumerate(workload.flows):
        IperfSession(
            fabric,
            total_bytes=flow.size_bytes,
            cca=scenario.cca,
            start_time=(
                None if plan.schedule_for(index).deferred else flow.start_time_s
            ),
            flow_id=index + 1,
            src_host=fabric.host(flow.src),
            dst_host=fabric.host(flow.dst),
        )
    EnergyMeter(sim, models).start()
    return sim


def _first_grid(seed: int, sizes: Sizes) -> Simulator:
    return _build_link_scenario(
        Scenario(
            name=f"grid-{PAPER_ALGORITHMS[0]}-mtu{DEFAULT_MTUS[0]}",
            flows=[FlowSpec(sizes.grid_bytes, cca=PAPER_ALGORITHMS[0])],
            mtu_bytes=DEFAULT_MTUS[0],
            packages=1,
        )
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dumbbell_sweep",
            "fast path: the paper's Fig. 1 sweep, two CUBIC flows, MTU 9000, "
            "no loss; sim/net/tcp share the work, so an engine-kernel gain "
            "must show here",
            dumbbell_sweep,
            lambda sizes: 10 * 2,
            _first_dumbbell,
        ),
        Workload(
            "lossy_mix",
            "slow path: eight CCAs through a five-packet drop-tail buffer "
            "(SACK churn, fast retransmit, RTO re-arm); a fast-path gain "
            "that taxes loss recovery shows here as a loss",
            lossy_mix,
            lambda sizes: sizes.lossy_reps * len(LOSSY_CCAS),
            _first_lossy,
        ),
        Workload(
            "fabric_datacenter",
            "scale: 400 DCTCP sessions on a 64-host leaf-spine fabric; "
            "completion polling in harness+apps dominates, so a pure "
            "kernel gain predicts little change here",
            fabric_datacenter,
            lambda sizes: sizes.fabric_flows,
            _first_fabric,
        ),
        Workload(
            "cca_mtu_grid",
            "instrumented small-packet I/O path: 10 CCAs x 4 MTUs traced "
            "cold into a cache, then replayed; the only workload where obs "
            "and the cache do any work",
            cca_mtu_grid,
            _grid_operations,
            _first_grid,
        ),
    )
}


# -- correctness ------------------------------------------------------


def nominal_packets(items: List[Item]) -> int:
    """Data segments the definition transfers: never executed events."""
    return sum(
        math.ceil(flow.bytes_transferred / mss_for_mtu(item.mtu_bytes))
        for item in items
        if item.replay_of is None
        for flow in item.measurement.flow_results
    )


def sim_digest(items: List[Item]) -> str:
    """sha256 over everything simulated; equal seeds must give equal digests."""
    digest = hashlib.sha256()
    for item in items:
        if item.replay_of is not None:
            continue
        m = item.measurement
        record = [
            m.scenario,
            m.seed,
            repr(m.energy_j),
            repr(m.duration_s),
            [
                [f.flow_id, repr(f.duration_s), f.bytes_transferred, f.retransmissions]
                for f in m.flow_results
            ],
            m.bottleneck_drops,
            m.ecn_marks,
            {key: repr(value) for key, value in sorted(m.extras.items())},
        ]
        digest.update(json.dumps(record, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def _item_problem(item: Item) -> Optional[str]:
    m = item.measurement
    if not (math.isfinite(m.energy_j) and m.energy_j > 0):
        return f"energy {m.energy_j!r} J"
    if not m.duration_s > 0:
        return f"duration {m.duration_s!r} s"
    attributed = sum(attribute_measurement(m).values())
    if abs(attributed - m.energy_j) > ADDITIVITY_TOL:
        return f"attribution sums to {attributed!r} J, measured {m.energy_j!r} J"
    if item.replay_of is not None and measurement_to_dict(m) != measurement_to_dict(
        item.replay_of
    ):
        return "cache replay differs from the cold result"
    return None


def evaluate(outcome: Outcome) -> "tuple[int, int, List[str]]":
    """(attempted, failed, problems): one operation is one flow of one item."""
    attempted = failed = 0
    problems = list(outcome.problems)
    for item in outcome.items:
        flows = item.measurement.flow_results
        attempted += len(flows)
        problem = _item_problem(item)
        if problem is not None:
            problems.append(f"{item.measurement.scenario}: {problem}")
            failed += len(flows)
            continue
        if len(flows) != len(item.expected_bytes):
            problems.append(
                f"{item.measurement.scenario}: {len(flows)} flows, "
                f"expected {len(item.expected_bytes)}"
            )
            failed += len(flows)
            continue
        for flow, expected in zip(flows, item.expected_bytes):
            if flow.bytes_transferred != expected:
                problems.append(
                    f"{item.measurement.scenario} flow {flow.flow_id}: "
                    f"{flow.bytes_transferred} of {expected} bytes"
                )
                failed += 1
    if outcome.problems:
        failed = attempted
    return attempted, failed, problems
