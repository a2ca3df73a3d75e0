"""Scenario execution: build a fresh testbed, run, measure, repeat.

The runner reproduces the paper's measurement loop (§3): set up the
scenario, read the RAPL counters, run the traffic, read the counters
again, repeat 10 times, report mean and standard deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.stats import mean, percentile, sample_std
from repro.apps.iperf import IperfResult, IperfSession, drive_until_complete
from repro.apps.probe import ThroughputProbe
from repro.energy.cpu import CpuModel
from repro.energy.meter import EnergyMeter
from repro.errors import ExperimentError
from repro.harness.experiment import AnyScenario, FabricScenario, Scenario
from repro.harness.fabric import measure_fabric, prepare_fabric
from repro.net.topology import Testbed, TestbedConfig, build_testbed
from repro.obs.attrib import record_flow_energy
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.sched import (
    FlowRequest,
    SchedulePlan,
    SchedulingContext,
    get_policy,
)
from repro.sim.engine import Simulator
from repro.sim.probe import ProbeSink
from repro.sim.rng import RngRegistry
from repro.sim.trace import TimeSeries


@dataclass
class RunMeasurement:
    """Everything measured in one scenario execution."""

    scenario: str
    seed: int
    energy_j: float
    duration_s: float
    flow_results: List[IperfResult]
    bottleneck_drops: int
    ecn_marks: int
    power_series: List[TimeSeries] = field(default_factory=list)
    throughput_series: Dict[int, TimeSeries] = field(default_factory=dict)
    #: measurement-kind-specific scalars (e.g. a fabric run's
    #: host/switch energy split); deterministic, cache-round-tripped,
    #: and journaled alongside :meth:`counters`
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def average_power_w(self) -> float:
        """Energy over the measured window divided by its length."""
        if self.duration_s <= 0:
            raise ExperimentError("zero-length measurement window")
        return self.energy_j / self.duration_s

    @property
    def total_retransmissions(self) -> int:
        """Sum of per-flow retransmission counts (iperf3's retr column)."""
        return sum(r.retransmissions for r in self.flow_results)

    @property
    def completion_time_s(self) -> float:
        """Time until the last flow completed."""
        if not self.flow_results:
            raise ExperimentError(
                f"{self.scenario}: no flow results to take a completion "
                f"time from"
            )
        return max(r.end_time for r in self.flow_results)

    def counters(self) -> Dict[str, float]:
        """The run's event counts as one named-counter export.

        This is the single place measurement counters are enumerated —
        the journal's ``run_finished`` events and any future exporter
        read this instead of picking ad-hoc fields off the dataclass,
        so adding a counter extends every consumer at once. Values are
        a pure function of (scenario, seed) and must survive the
        :mod:`repro.harness.cache` JSON round trip losslessly.
        """
        return {
            "bottleneck_drops": float(self.bottleneck_drops),
            "ecn_marks": float(self.ecn_marks),
            "retransmissions": float(self.total_retransmissions),
            "flows": float(len(self.flow_results)),
        }


@dataclass
class RepeatedResult:
    """Aggregate over N repetitions of one scenario."""

    scenario: str
    runs: List[RunMeasurement]

    @property
    def n(self) -> int:
        return len(self.runs)

    @property
    def mean_energy_j(self) -> float:
        return mean([r.energy_j for r in self.runs])

    @property
    def std_energy_j(self) -> float:
        return sample_std([r.energy_j for r in self.runs])

    @property
    def mean_power_w(self) -> float:
        return mean([r.average_power_w for r in self.runs])

    @property
    def std_power_w(self) -> float:
        return sample_std([r.average_power_w for r in self.runs])

    @property
    def mean_duration_s(self) -> float:
        return mean([r.duration_s for r in self.runs])

    @property
    def mean_retransmissions(self) -> float:
        return mean([float(r.total_retransmissions) for r in self.runs])


def _build_testbed(
    scenario: Scenario, sim: Simulator, plan: Optional[SchedulePlan] = None
) -> Testbed:
    kwargs = dict(mtu_bytes=scenario.mtu_bytes)
    if scenario.buffer_bytes is not None:
        kwargs["buffer_bytes"] = scenario.buffer_bytes
    kwargs["ecn_threshold_bytes"] = scenario.ecn_threshold_bytes
    if scenario.host_packet_gap_s is not None:
        kwargs["host_packet_gap_s"] = scenario.host_packet_gap_s
    discipline = scenario.bottleneck_discipline
    if plan is not None and plan.bottleneck_discipline != "fifo":
        # Network-level policy hint (srpt's pFabric-style priority qdisc).
        discipline = plan.bottleneck_discipline
    kwargs["bottleneck_discipline"] = discipline
    kwargs["int_telemetry"] = scenario.int_telemetry
    return build_testbed(sim, TestbedConfig(**kwargs))


def _plan_for(scenario: Scenario) -> Optional[SchedulePlan]:
    """The scenario's policy plan, or None for legacy declared flows.

    Planning happens before the testbed exists, so the context carries
    the testbed's *configured* bottleneck rate (the default dumbbell's
    link rate — single-link scenarios never override it). Plans are
    pure functions of the scenario, never of the run's seed.
    """
    if scenario.policy is None:
        return None
    requests = [
        FlowRequest(
            index=i,
            size_bytes=flow.total_bytes,
            arrival_s=flow.start_time_s,
            deadline_s=flow.deadline_s,
        )
        for i, flow in enumerate(scenario.flows)
    ]
    ctx = SchedulingContext(
        capacity_bps=TestbedConfig().link_rate_bps,
        offered_load=scenario.offered_load,
        supports_priority=True,
    )
    return get_policy(scenario.policy).plan(requests, ctx)


def _prepare_link(
    scenario: Scenario, sim: Simulator, seed: int
) -> "_PreparedLink":
    """Build the testbed, sessions, probes and meter for one run."""
    rngs = RngRegistry(seed)
    plan = _plan_for(scenario)
    testbed = _build_testbed(scenario, sim, plan)

    n_packages = scenario.packages or max(2, len(scenario.flows))
    sender_cpu = CpuModel(
        sim,
        testbed.sender,
        packages=n_packages,
        sample_interval_s=scenario.sample_interval_s,
    )
    cpu_models = [sender_cpu]
    if scenario.meter_receiver:
        cpu_models.append(
            CpuModel(
                sim,
                testbed.receiver,
                packages=n_packages,
                sample_interval_s=scenario.sample_interval_s,
            )
        )
    if scenario.power_noise_sigma > 0:
        noise_rng = rngs.stream("power-noise")
        for model in cpu_models:
            model.set_noise(noise_rng, scenario.power_noise_sigma)
    if scenario.background_load > 0:
        for model in cpu_models:
            model.set_background_load(scenario.background_load)

    def _after_index(i: int) -> Optional[int]:
        if plan is not None:
            return plan.schedule_for(i).after_index
        return scenario.flows[i].after_flow

    jitter_rng = rngs.stream("start-jitter")
    sessions: List[IperfSession] = []
    for i, flow in enumerate(scenario.flows):
        if _after_index(i) is not None:
            # Deferred flows draw no jitter (a chained start replaces
            # the arrival entirely) — identical stream consumption to
            # the legacy after_flow path.
            start: Optional[float] = None
        else:
            start = flow.start_time_s + jitter_rng.uniform(
                0.0, scenario.start_jitter_s
            )
        override_cca = plan is not None and plan.sender_cca is not None
        session = IperfSession(
            testbed,
            total_bytes=flow.total_bytes,
            cca=plan.sender_cca if override_cca else flow.cca,  # type: ignore[union-attr]
            target_bitrate_bps=flow.target_rate_bps,
            start_time=start,
            ecn=flow.ecn,
            cca_kwargs=(
                dict(plan.sender_cca_kwargs or {})  # type: ignore[union-attr]
                if override_cca
                else flow.cca_kwargs
            ),
            # Per-run ids, not the process-global counter: measurements
            # must be a pure function of (scenario, seed) so serial,
            # process-pool, and cached runs are interchangeable.
            flow_id=i + 1,
        )
        sessions.append(session)
        for model in cpu_models:
            model.pin_flow(session.flow_id, i % n_packages)

    # Completion chaining for serialized (full-speed-then-idle) schedules
    # and Fig. 1-style cap lifting. Policy plans may defer behind any
    # index (srpt's shortest-first chains), so sessions all exist first.
    for i, flow in enumerate(scenario.flows):
        after = _after_index(i)
        if after is not None:
            successor = sessions[i]
            if plan is not None and flow.start_time_s > 0.0:
                # Open-workload chaining: never start a flow before its
                # own arrival (the fabric prepare step's exact semantics).
                successor.begin_after(sessions[after], flow.start_time_s)
            else:
                sessions[after].sender.on_complete(
                    lambda _t, s=successor: s.begin()
                )
        if flow.uncap_after is not None:
            capped = sessions[i]
            sessions[flow.uncap_after].sender.on_complete(
                lambda _t, s=capped: s.uncap()
            )

    probes: Dict[int, ThroughputProbe] = {}
    if scenario.probe_interval_s is not None:
        for session in sessions:
            probe = ThroughputProbe(
                sim, session.receiver, interval_s=scenario.probe_interval_s
            )
            probe.start()
            probes[session.flow_id] = probe

    return _PreparedLink(
        testbed=testbed,
        sessions=sessions,
        probes=probes,
        meter=EnergyMeter(sim, cpu_models),
    )


@dataclass
class _PreparedLink:
    """A built single-link run: what the pipeline drives, then measures."""

    testbed: Testbed
    sessions: List[IperfSession]
    probes: Dict[int, ThroughputProbe]
    meter: EnergyMeter


def _measure_link(
    scenario: Scenario, prepared: _PreparedLink, host_energy_j: float
) -> Dict[str, Any]:
    """The single-link fields of the run's measurement."""
    for probe in prepared.probes.values():
        probe.stop()
    bottleneck_q = prepared.testbed.bottleneck.queue
    return dict(
        energy_j=host_energy_j,
        bottleneck_drops=int(bottleneck_q.counters.get("drops")),
        ecn_marks=int(bottleneck_q.counters.get("ecn_marks")),
        power_series=prepared.meter.power_series(),
        throughput_series={
            fid: p.series for fid, p in prepared.probes.items()
        },
    )


#: What differs by scenario kind: the journal name of the build phase,
#: the *prepare* step ``(scenario, sim, seed) -> prepared`` (anything
#: with ``sessions`` and ``meter``), and the *measure* step
#: ``(scenario, prepared, host_energy_j) -> RunMeasurement fields``.
#: Everything else in :func:`run_once` is shared.
_LINK_KIND = ("testbed_build", _prepare_link, _measure_link)
_FABRIC_KIND = ("fabric_build", prepare_fabric, measure_fabric)


def run_once(
    scenario: AnyScenario,
    seed: int = 0,
    observer: Optional[Observer] = None,
    probe_sink: Optional[ProbeSink] = None,
) -> RunMeasurement:
    """Execute one scenario on a fresh testbed and measure it.

    The one scenario -> measurement pipeline: a single-link
    :class:`Scenario` and a :class:`FabricScenario` differ only in
    their prepare and measure steps, picked from the scenario's type.

    ``observer`` times the run's phases — spans for
    testbed build, the sim loop (with the executed-event count), and
    measurement teardown. The default is the shared no-op observer,
    and no observer can affect the measurement: it only ever receives
    copies of names and numbers (see :mod:`repro.obs`).

    ``probe_sink`` overrides where in-sim telemetry samples (cwnd,
    queue depth, instantaneous power...) go. The default asks the
    observer for one — telemetry-enabled observers mint a collecting
    sink and persist it to the trace directory afterwards; the no-op
    observer hands back the shared no-op sink. Like the observer, a
    sink is write-only: it cannot affect the measurement.
    """
    build_phase, prepare, measure = (
        _FABRIC_KIND if isinstance(scenario, FabricScenario) else _LINK_KIND
    )
    obs = NULL_OBSERVER if observer is None else observer
    sim = Simulator()
    sink = probe_sink if probe_sink is not None else obs.probe_sink(
        scenario.name, seed
    )
    sim.probe_sink = sink
    with obs.span(build_phase, scenario=scenario.name, seed=seed):
        prepared = prepare(scenario, sim, seed)
    sessions = prepared.sessions
    meter = prepared.meter
    meter.start()

    loop_span = obs.span("sim_loop", scenario=scenario.name, seed=seed)
    with loop_span:
        drive_until_complete(
            sim, sessions, scenario.time_limit_s, scenario.name
        )
        loop_span.add(
            events_executed=sim.events_executed,
            pending_events=sim.pending_events,
            dead_in_queue=sim.dead_in_queue,
        )
    if loop_span.wall_s > 0:
        # The events/sec gauge the ROADMAP's "fast as the hardware
        # allows" goal is tracked by: virtual events over loop wall time.
        obs.set_gauge(
            "sim_events_per_second", sim.events_executed / loop_span.wall_s
        )
    if obs.enabled:
        # Post-loop heap state: live events still queued and the exact
        # lazy-deletion tally, so heap bloat shows up in obs report.
        obs.set_gauge("sim_pending_events", float(sim.pending_events))
        obs.set_gauge("sim_dead_in_queue", float(sim.dead_in_queue))
        obs.set_gauge("sim_queued_events", float(sim.queued_events))

    with obs.span("measurement", scenario=scenario.name, seed=seed):
        fields = measure(scenario, prepared, meter.stop())
        flow_results = [s.result() for s in sessions]
        measurement = RunMeasurement(
            scenario=scenario.name,
            seed=seed,
            duration_s=meter.duration_s,
            flow_results=flow_results,
            **fields,
        )
        # The Pareto frontier's x-axis: FCT percentiles under the same
        # keys for every kind, so fleet and single-link points plot on
        # one chart.
        fcts = [r.duration_s for r in flow_results]
        measurement.extras["fct_p50_s"] = percentile(fcts, 50.0)
        measurement.extras["fct_p99_s"] = percentile(fcts, 99.0)
    # Attribution samples must land in the sink before it is persisted.
    record_flow_energy(sink, measurement)
    if probe_sink is None:
        obs.record_telemetry(sink, scenario=scenario.name, seed=seed)
    return measurement


def run_repeated(
    scenario: AnyScenario,
    repetitions: int = 10,
    base_seed: int = 0,
    *,
    jobs: Optional[int] = None,
    cache=None,
    observer: Optional[Observer] = None,
) -> RepeatedResult:
    """Run a scenario N times with varied seeds (the paper uses N=10).

    Repetitions are independent simulations, so they parallelize and
    cache through the executor layer: ``jobs=4`` fans them out across
    four worker processes, ``cache=`` (a directory path or a
    :class:`~repro.harness.cache.ResultCache`) replays stored results.
    Each repetition's seed is ``base_seed + rep``, derived here — never
    inside a worker — so results are identical for every backend.
    ``observer`` traces the batch (see :mod:`repro.obs`) without
    affecting any result.
    """
    if repetitions < 1:
        raise ExperimentError(f"need >= 1 repetition, got {repetitions}")
    # Imported lazily: the executor module builds on run_once above.
    from repro.harness.executor import WorkItem, run_work_items

    items = [
        WorkItem(scenario=scenario, seed=base_seed + rep)
        for rep in range(repetitions)
    ]
    runs = run_work_items(items, jobs=jobs, cache=cache, observer=observer)
    return RepeatedResult(scenario=scenario.name, runs=runs)
