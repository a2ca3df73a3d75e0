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
from repro.net.topology import Fabric, build_testbed
from repro.obs.attrib import record_flow_energy
from repro.obs.observer import NULL_OBSERVER, Observer
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
    throughput_series: Dict[int, TimeSeries] = field(default_factory=dict)
    #: measurement-kind-specific scalars (e.g. a fabric run's
    #: host/switch energy split); deterministic, cache-round-tripped,
    #: and journaled alongside :meth:`counters`
    extras: Dict[str, float] = field(default_factory=dict)
    #: the metered packages' joules by mechanism, keyed by
    #: ``PowerModel.COMPONENT_KEYS``; sums to the host energy up to RAPL
    #: quantization (a fabric run's ``host_energy_j``)
    energy_components_j: Dict[str, float] = field(default_factory=dict)

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

    def summary(self) -> Dict[str, Any]:
        """The deterministic fields a journal's ``run_finished`` event
        records: what ``obs snapshot``/``obs diff`` and the drift gate
        read."""
        return {
            "energy_j": self.energy_j,
            "sim_time_s": self.duration_s,
            "counters": self.counters(),
            "extras": self.extras,
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


def _prepare_link(
    scenario: Scenario, sim: Simulator, seed: int
) -> "_PreparedLink":
    """Build the testbed, sessions, probes and meter for one run."""
    rngs = RngRegistry(seed)
    plan = scenario.plan()
    testbed = build_testbed(sim, scenario.testbed_config())

    # One CPU model per sender host, sized by the flows it carries.
    cpu_models = [
        CpuModel(
            sim,
            host,
            packages=scenario.packages
            or max(2, sum(f.sender_host == h for f in scenario.flows)),
            sample_interval_s=scenario.sample_interval_s,
        )
        for h, host in enumerate(testbed.hosts[:-1])
    ]
    if scenario.power_noise_sigma > 0:
        noise_rng = rngs.stream("power-noise")
        for model in cpu_models:
            model.set_noise(noise_rng, scenario.power_noise_sigma)
    if scenario.background_load > 0:
        for model in cpu_models:
            model.set_background_load(scenario.background_load)

    jitter_rng = rngs.stream("start-jitter")
    sessions: List[IperfSession] = []
    placed = [0] * len(cpu_models)  # flows pinned so far, per sender host
    for i, flow in enumerate(scenario.flows):
        if plan.schedule_for(i).deferred:
            # Deferred flows draw no jitter: a chained start replaces
            # the arrival entirely.
            start: Optional[float] = None
        else:
            start = flow.start_time_s + jitter_rng.uniform(
                0.0, scenario.start_jitter_s
            )
        session = IperfSession(
            testbed,
            total_bytes=flow.total_bytes,
            cca=flow.cca if plan.sender_cca is None else plan.sender_cca,
            target_bitrate_bps=flow.target_rate_bps,
            start_time=start,
            cca_kwargs=(
                flow.cca_kwargs
                if plan.sender_cca is None
                else dict(plan.sender_cca_kwargs or {})
            ),
            # Per-run ids, not the process-global counter: measurements
            # must be a pure function of (scenario, seed) so serial,
            # process-pool, and cached runs are interchangeable.
            flow_id=i + 1,
            src_host=testbed.hosts[flow.sender_host],
        )
        sessions.append(session)
        # A flow takes its own host's packages in turn.
        host_cpu = cpu_models[flow.sender_host]
        host_cpu.pin_flow(
            session.flow_id, placed[flow.sender_host] % len(host_cpu.packages)
        )
        placed[flow.sender_host] += 1

    # Completion chaining for deferred flows (full-speed-then-idle
    # schedules) and Fig. 1-style cap lifting. Plans may defer behind any
    # index (srpt's shortest-first chains), so sessions all exist first.
    for i, flow in enumerate(scenario.flows):
        after = plan.schedule_for(i).after_index
        if after is not None:
            successor = sessions[i]
            if flow.start_time_s > 0.0:
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

    testbed: Fabric
    sessions: List[IperfSession]
    probes: Dict[int, ThroughputProbe]
    meter: EnergyMeter


def _measure_link(
    scenario: Scenario, prepared: _PreparedLink, host_energy_j: float
) -> Dict[str, Any]:
    """The single-link fields of the run's measurement."""
    for probe in prepared.probes.values():
        probe.stop()
    bottleneck = prepared.testbed.bottleneck
    assert bottleneck is not None  # build_testbed always names it
    return dict(
        energy_j=host_energy_j,
        bottleneck_drops=int(bottleneck.queue.counters.get("drops")),
        ecn_marks=int(bottleneck.queue.counters.get("ecn_marks")),
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


def _energy_components_j(meter: EnergyMeter) -> Dict[str, float]:
    """Every metered package's per-mechanism joules, summed.

    The sum needs no start snapshot: packages accumulate from
    construction, and both prepare steps build them without running the
    simulator, so the window :func:`run_once` opens before the first
    event holds every joule they ever counted.
    """
    totals: Dict[str, float] = {}
    for model in meter.cpu_models:
        for pkg in model.packages:
            for key, joules in pkg.energy_components_j.items():
                totals[key] = totals.get(key, 0.0) + joules
    return totals


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
        # Post-loop heap state (live events still queued, the exact
        # lazy-deletion tally, the raw heap size) rides on the span, so
        # heap bloat shows up in obs report and the metric exports.
        loop_span.add(
            events_executed=sim.events_executed,
            pending_events=sim.pending_events,
            dead_in_queue=sim.dead_in_queue,
        )
        if obs.enabled:
            loop_span.add(queued_events=sim.queued_events)

    with obs.span("measurement", scenario=scenario.name, seed=seed):
        fields = measure(scenario, prepared, meter.stop())
        flow_results = [s.result() for s in sessions]
        measurement = RunMeasurement(
            scenario=scenario.name,
            seed=seed,
            duration_s=meter.duration_s,
            flow_results=flow_results,
            energy_components_j=_energy_components_j(meter),
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
