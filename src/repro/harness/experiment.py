"""Experiment descriptions.

A :class:`Scenario` is a declarative description of one measured run —
the simulation analogue of the paper's experiment scripts: which flows
(CCA, size, rate cap, start), which MTU, how much background load, and
how the energy window is measured. The runner
(:mod:`repro.harness.runner`) realizes scenarios against fresh testbeds.
A scenario derives its network's config in one place, and does so when
it is constructed, so a scenario the builder would reject raises
:class:`~repro.errors.ExperimentError` before anything runs.
"""

from __future__ import annotations

import copy
import json
from dataclasses import KW_ONLY, dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, Dict, List, Optional, Union

from repro.apps.workload import INCAST_FAN_IN, INCAST_FRACTION, RACK_LOCAL_FRACTION
from repro.core.allocation import FSTI_PLAN_NAME, AllocationPlan
from repro.errors import ExperimentError, NetworkConfigError
from repro.net.topology import FabricConfig, TestbedConfig, check_discipline
from repro.sched import (
    FlowRequest,
    SchedulePlan,
    SchedulingContext,
    get_policy,
    resolve_policy_name,
)
from repro.units import msec, usec

if TYPE_CHECKING:
    from repro.harness.fabric import PreparedRun
    from repro.sim.engine import Simulator


def _plain_fields(spec: Any) -> Dict[str, Any]:
    """A spec's fields as a new dict: what ``dataclasses.asdict`` returns
    for a spec whose one mutable field value is ``cca_kwargs``.

    ``asdict`` deep-copies every value of every flow to produce a string
    that is hashed and thrown away; here only ``cca_kwargs`` is copied,
    so the result still never aliases a dict the caller holds.
    """
    payload = dict(vars(spec))  # a spec holds its fields and nothing else
    if payload.get("cca_kwargs") is not None:
        payload["cca_kwargs"] = copy.deepcopy(payload["cca_kwargs"])
    return payload


@dataclass
class FlowSpec:
    """One flow of a scenario."""

    total_bytes: int
    _: KW_ONLY
    cca: str = "cubic"
    #: iperf3 -b style application rate cap; None = unlimited
    target_rate_bps: Optional[float] = None
    #: virtual start time (a flow the policy defers starts no earlier)
    start_time_s: float = 0.0
    #: index of a flow whose completion lifts this flow's rate cap
    #: (Fig. 1: the capped flow "uses the rest of the link" afterwards)
    uncap_after: Optional[int] = None
    #: extra keyword arguments for the CCA constructor (e.g. the
    #: baseline's window_segments, bbr2's alpha_quality)
    cca_kwargs: Optional[dict] = None
    #: absolute virtual time this flow should complete by; only the
    #: ``deadline`` scheduling policy reads it (None = unconstrained)
    deadline_s: Optional[float] = None
    #: index of the sender host the flow leaves from; the testbed has
    #: one sender host per index up to the largest (0: the paper's one)
    sender_host: int = 0

    def __post_init__(self) -> None:
        if self.total_bytes <= 0:
            raise ExperimentError(f"flow size must be > 0, got {self.total_bytes}")
        if self.sender_host < 0:
            raise ExperimentError(
                f"sender host must be >= 0, got {self.sender_host}"
            )


@dataclass
class Scenario:
    """A full measured experiment."""

    name: str
    _: KW_ONLY
    flows: List[FlowSpec]
    mtu_bytes: int = 9000
    background_load: float = 0.0
    #: per-rep power measurement noise (~RAPL/system noise); the paper's
    #: error bars come from exactly this kind of run-to-run variation
    power_noise_sigma: float = 0.004
    #: per-rep flow start jitter in seconds (decorrelates repetitions)
    start_jitter_s: float = usec(5.0)
    #: wall clock ceiling for the virtual experiment
    time_limit_s: float = 600.0
    #: sampling interval for CPU power integration
    sample_interval_s: float = msec(1.0)
    #: CPU packages to model/meter on each sender host (None = max(2,
    #: flows on that host)); single-flow power figures use 1 so the
    #: reading is per-flow, like the paper's
    packages: Optional[int] = None
    #: throughput probe interval (None = no probes)
    probe_interval_s: Optional[float] = None
    #: testbed overrides. ``buffer_bytes`` sizes every queue of the
    #: testbed, the senders' uplinks as well as the bottleneck
    buffer_bytes: Optional[int] = None
    ecn_threshold_bytes: Optional[int] = field(default=100 * 1024)
    #: uplinks per sender host (None = the testbed's two bonded links)
    sender_bonded_links: Optional[int] = None
    #: bottleneck scheduling, one of
    #: :data:`~repro.net.topology.BOTTLENECK_DISCIPLINES`
    bottleneck_discipline: str = "fifo"
    #: stamp INT at the bottleneck (required by hpcc)
    int_telemetry: bool = False
    #: scheduling policy (a :mod:`repro.sched` registry name): it
    #: decides which flows start at their arrival and which wait for
    #: another's completion ("serialized": full-speed-then-idle), plus
    #: any network hints, at run time
    policy: str = "fair"
    #: the workload's offered load fraction, if known; a policy input
    #: (``load-adaptive`` shares above its threshold). None = closed
    #: batch. Does not affect the physics of the declared flows.
    offered_load: Optional[float] = None

    #: the journal name of this kind's build phase
    build_phase: ClassVar[str] = "testbed_build"

    def __post_init__(self) -> None:
        if not self.flows:
            raise ExperimentError(f"scenario {self.name!r} has no flows")
        for i, flow in enumerate(self.flows):
            if flow.uncap_after is not None and (
                flow.uncap_after == i
                or not 0 <= flow.uncap_after < len(self.flows)
            ):
                raise ExperimentError(
                    f"scenario {self.name!r}: flow {i} lifts its cap after "
                    f"flow {flow.uncap_after}, which is not another of its "
                    f"{len(self.flows)} flows"
                )
        # Canonicalize so every spelling hashes identically in cache keys.
        self.policy = resolve_policy_name(self.policy)
        if self.offered_load is not None and self.offered_load < 0:
            raise ExperimentError(
                f"offered load must be >= 0, got {self.offered_load}"
            )
        if not 0.0 <= self.background_load <= 1.0:
            raise ExperimentError(
                f"background load must be in [0, 1], got {self.background_load}"
            )
        plan = self.plan()
        if len(self.flows) > 1 and any(f.cca == "baseline" for f in self.flows):
            # Footnote 2 of the paper: the no-CC module must never share
            # a FIFO bottleneck — it would cause congestion collapse.
            # (A pFabric-style priority bottleneck is the exception: its
            # whole design is line-rate senders + in-network scheduling.)
            admitted = sum(1 for decision in plan.flows if not decision.deferred)
            if admitted > 1 and "priority" not in (
                self.bottleneck_discipline,
                plan.bottleneck_discipline,
            ):
                raise ExperimentError(
                    "the constant-cwnd baseline cannot run concurrently "
                    f"with other flows under policy {self.policy!r} "
                    "(paper footnote 2)"
                )
        hosts = {flow.sender_host for flow in self.flows}
        if hosts != set(range(len(hosts))):
            raise ExperimentError(
                f"scenario {self.name!r} numbers its sender hosts "
                f"{sorted(hosts)}; they must run 0..N-1 without a gap"
            )
        try:
            check_discipline(self.bottleneck_discipline)
            self.testbed_config(plan)
        except NetworkConfigError as exc:
            raise ExperimentError(f"scenario {self.name!r}: {exc}") from None

    def build(self, sim: Simulator, seed: int) -> PreparedRun:
        """This scenario's run on ``sim``:
        :func:`repro.harness.fabric.build_link`."""
        # Imported at call time: the build steps import this module.
        from repro.harness.fabric import build_link

        return build_link(self, sim, seed)

    def plan(self) -> SchedulePlan:
        """The policy's plan for the flows: which start at their arrival,
        which wait for another flow's completion, and any network hints.

        Planning happens before the testbed exists, so the context carries
        the testbed's *configured* bottleneck rate (the default dumbbell's
        link rate — single-link scenarios never override it). A plan is a
        pure function of the scenario, never of the run's seed.
        """
        requests = [
            FlowRequest(
                index=i,
                size_bytes=flow.total_bytes,
                arrival_s=flow.start_time_s,
                deadline_s=flow.deadline_s,
            )
            for i, flow in enumerate(self.flows)
        ]
        ctx = SchedulingContext(
            capacity_bps=TestbedConfig.link_rate_bps,
            offered_load=self.offered_load,
            supports_priority=True,
        )
        return get_policy(self.policy).plan(requests, ctx)

    def testbed_config(self, plan: SchedulePlan) -> TestbedConfig:
        """The testbed this scenario runs on under ``plan``, its
        :meth:`plan` (made once by the caller). An override left None
        keeps the default, and the plan's bottleneck hint (srpt's
        priority qdisc) wins over the scenario's discipline."""
        kwargs: Dict[str, Any] = dict(
            mtu_bytes=self.mtu_bytes,
            ecn_threshold_bytes=self.ecn_threshold_bytes,
            sender_hosts=1 + max(flow.sender_host for flow in self.flows),
            bottleneck_discipline=self.bottleneck_discipline,
            int_telemetry=self.int_telemetry,
        )
        for name in ("buffer_bytes", "sender_bonded_links"):
            if getattr(self, name) is not None:
                kwargs[name] = getattr(self, name)
        hint = plan.bottleneck_discipline
        if hint != "fifo":
            kwargs["bottleneck_discipline"] = hint
        return TestbedConfig(**kwargs)

    def canonical_dict(self) -> Dict[str, Any]:
        """Every field (flows included) as JSON-ready plain data."""
        payload = _plain_fields(self)
        payload["flows"] = [_plain_fields(flow) for flow in self.flows]
        return payload

    def cache_key(self) -> str:
        """Canonical serialization of the full scenario spec.

        The result cache (:mod:`repro.harness.cache`) hashes this string
        together with the repetition seed and a schema version, so it
        must be a pure function of the scenario's fields: stable across
        processes, interpreter runs, and dict insertion orders (keys are
        sorted). Two scenarios with equal fields always serialize
        identically; any field change produces a different string.
        """
        return json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )


@dataclass
class FabricScenario:
    """A fleet-scale experiment: one CCA over a multi-switch fabric.

    The fabric analogue of :class:`Scenario` — a declarative, hashable
    description whose build step (:mod:`repro.harness.fabric`) realizes
    it on a fresh fabric; the runner does the rest as for a
    :class:`Scenario`. The same executor/cache/telemetry plumbing
    applies because both classes expose ``name`` and ``cache_key()``.
    """

    name: str
    _: KW_ONLY
    cca: str = "dctcp"
    #: scheduling policy (a :mod:`repro.sched` registry name): "fair"
    #: starts every flow at its generated arrival (fair sharing under
    #: contention); "serialized" chains each source host's flows so at
    #: most one runs per host at a time (full-speed-then-idle,
    #: fleet-wide); "srpt"/"deadline"/"load-adaptive" as documented in
    #: docs/scheduling.md.
    policy: str = "fair"
    n_flows: int = 1000
    mix: str = "datacenter"
    target_load: float = 0.3
    #: topology: "leaf-spine" (leaves/spines/hosts_per_leaf) or
    #: "fat-tree" (the k = 4 fat-tree: 16 hosts, 20 switches)
    topology: str = "leaf-spine"
    leaves: int = 8
    spines: int = 2
    hosts_per_leaf: int = 8
    #: switch power hardware: "today" (load-independent) or
    #: "rate-adaptive" (Nedevschi-style sleeping ports)
    switch_power: str = "today"
    time_limit_s: float = 600.0
    #: per-flow deadline slack for the ``deadline`` policy: a flow's
    #: deadline is ``arrival + slack x its line-rate duration``; other
    #: policies ignore it
    deadline_slack: float = 4.0

    #: the workload generator's placement and the fabric's ports: one
    #: value each, the generator's defaults and :class:`FabricConfig`'s
    rack_local_fraction: ClassVar[float] = RACK_LOCAL_FRACTION
    incast_fraction: ClassVar[float] = INCAST_FRACTION
    incast_fan_in: ClassVar[int] = INCAST_FAN_IN
    mtu_bytes: ClassVar[int] = FabricConfig.mtu_bytes
    ecn_threshold_bytes: ClassVar[Optional[int]] = FabricConfig.ecn_threshold_bytes
    #: sampling interval for the hosts' CPU power integration; a fabric
    #: run's power is noise-free, so fleet deltas are exact
    sample_interval_s: ClassVar[float] = msec(5.0)
    #: a generated arrival is already random: no start jitter, and no
    #: throughput probes on a thousand flows
    start_jitter_s: ClassVar[float] = 0.0
    probe_interval_s: ClassVar[Optional[float]] = None
    #: the journal name of this kind's build phase
    build_phase: ClassVar[str] = "fabric_build"

    def __post_init__(self) -> None:
        # Canonicalize so every spelling hashes identically in cache keys.
        self.policy = resolve_policy_name(self.policy)
        if self.deadline_slack < 1.0:
            raise ExperimentError(
                f"deadline slack must be >= 1 (a line-rate flow can never "
                f"beat its own transmission time), got {self.deadline_slack}"
            )
        if self.topology not in ("leaf-spine", "fat-tree"):
            raise ExperimentError(
                f"unknown topology {self.topology!r}; "
                f"known: ['fat-tree', 'leaf-spine']"
            )
        if self.switch_power not in ("today", "rate-adaptive"):
            raise ExperimentError(
                f"unknown switch power model {self.switch_power!r}; "
                f"known: ['rate-adaptive', 'today']"
            )
        if self.n_flows < 1:
            raise ExperimentError(f"need >= 1 flow, got {self.n_flows}")
        try:
            self.fabric_config()
        except NetworkConfigError as exc:
            raise ExperimentError(f"scenario {self.name!r}: {exc}") from None

    def build(self, sim: Simulator, seed: int) -> PreparedRun:
        """This scenario's run on ``sim``:
        :func:`repro.harness.fabric.build_fabric`."""
        # Imported at call time: the build steps import this module.
        from repro.harness.fabric import build_fabric

        return build_fabric(self, sim, seed)

    def fabric_config(self) -> FabricConfig:
        """The fabric this scenario runs on. A fat-tree's shape is its
        arity alone, so only a leaf-spine takes the scenario's
        ``leaves``/``spines``/``hosts_per_leaf``."""
        kwargs: Dict[str, Any] = dict(
            # HPCC's switch support: stamp in-band telemetry on every port.
            int_telemetry=self.cca == "hpcc",
        )
        if self.topology == "leaf-spine":
            kwargs.update(
                leaves=self.leaves,
                spines=self.spines,
                hosts_per_leaf=self.hosts_per_leaf,
            )
        return FabricConfig(**kwargs)

    def canonical_dict(self) -> Dict[str, Any]:
        """Every field as JSON-ready plain data, marked as a fabric run.

        The ``kind`` marker keeps fabric cache keys disjoint from
        :class:`Scenario` keys even if the field sets ever collide.
        """
        payload = _plain_fields(self)
        payload["kind"] = "fabric"
        return payload

    def cache_key(self) -> str:
        """Canonical serialization (see :meth:`Scenario.cache_key`)."""
        return json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )


#: anything the runner/executor/cache stack can execute: both classes
#: expose ``name``, ``canonical_dict()`` and ``cache_key()``
AnyScenario = Union[Scenario, FabricScenario]


def scenario_from_plan(
    name: str, plan: AllocationPlan, cca: str = "cubic", **kwargs
) -> Scenario:
    """Build a scenario from a :class:`~repro.core.allocation.AllocationPlan`.

    The full-speed-then-idle plan runs under the ``serialized`` policy:
    completion chaining (flow i+1 starts when flow i finishes) rather
    than nominal start times, matching how the paper runs it (the second
    flow starts when the first ends, whatever the actual first-flow FCT
    was). Every other plan runs under ``fair``, its flows as planned.
    """
    serialized = plan.name == FSTI_PLAN_NAME
    flows = [
        FlowSpec(
            total_bytes=flow_plan.total_bytes,
            cca=cca,
            target_rate_bps=flow_plan.target_rate_bps,
            start_time_s=0.0 if serialized else flow_plan.start_time_s,
            uncap_after=flow_plan.uncap_after,
        )
        for flow_plan in plan.flows
    ]
    policy = "serialized" if serialized else "fair"
    return Scenario(name=name, flows=flows, policy=policy, **kwargs)
