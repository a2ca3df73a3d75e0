"""One isolated benchmark per layer: the layer alone, nothing around it.

Each builds its layer through public constructors under a bare
``Simulator`` (or none) and reports a rate or a time per operation. They
answer "did this layer's own cost move", which a workload's self-time
share cannot (a share also moves when *another* layer changes). None of
them is an end-to-end metric and none has a bound.
"""

from __future__ import annotations

import math
import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, Optional

from repro import cc
from repro.apps.iperf import IperfSession, run_until_complete
from repro.apps.workload import generate_fabric_workload
from repro.cc.base import AckEvent
from repro.energy.power_model import IntervalActivity, PowerModel
from repro.harness import compute_key
from repro.net.link import Interface, Link
from repro.net.packet import Packet, mss_for_mtu
from repro.net.queue import DropTailQueue
from repro.net.switch import Switch
from repro.net.topology import TestbedConfig, build_testbed
from repro.obs import JournalWriter
from repro.sched import FlowRequest, SchedulingContext, get_policy
from repro.sim.engine import Simulator
from repro.tcp.ranges import RangeSet
from repro.units import gbps, usec

from bench.workloads import FULL, lossy_scenario

REPEATS = 3


def _seconds(body: Callable[[], None]) -> float:
    """Median wall seconds of ``body`` over REPEATS runs."""
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        body()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def kernel_events_per_s(events: int) -> float:
    """Events through schedule/cancel/run; 30 % are cancelled and re-armed."""

    def body() -> None:
        sim = Simulator()
        fired = [0]

        def tick() -> None:
            fired[0] += 1

        for index in range(events):
            event = sim.schedule(index * 1e-6, tick)
            if index % 10 < 3:
                event.cancel()
                sim.schedule(index * 1e-6 + 5e-7, tick)
        sim.run()
        if fired[0] != events:
            raise AssertionError(f"{fired[0]} of {events} events fired")

    return events / _seconds(body)


class _CountingSink:
    def __init__(self) -> None:
        self.received = 0

    def receive(self, packet: Packet) -> None:
        self.received += 1


def link_pkts_per_s(packets: int) -> float:
    """Packets through Interface -> Link -> Switch -> Interface -> sink."""

    def body() -> None:
        sim = Simulator()
        sink = _CountingSink()
        switch = Switch(name="bench")
        uplink = Link(sim, gbps(10.0), usec(5.0), "up")
        uplink.connect(switch)
        downlink = Link(sim, gbps(10.0), usec(5.0), "down")
        downlink.connect(sink)
        capacity = packets * 2000
        switch.add_port(
            "b", Interface(sim, DropTailQueue(capacity, "down-q"), downlink, "down-if")
        )
        ingress = Interface(sim, DropTailQueue(capacity, "up-q"), uplink, "up-if")
        for index in range(packets):
            ingress.enqueue(
                Packet(flow_id=1, src="a", dst="b", seq=index * 1000, payload_bytes=1000)
            )
        sim.run()
        if sink.received != packets:
            raise AssertionError(f"{sink.received} of {packets} packets arrived")

    return packets / _seconds(body)


def loopback_segs_per_s(segments: int) -> float:
    """One sender/receiver pair, constant cwnd, lossless, MTU 1500."""
    mtu = 1500
    total_bytes = segments * mss_for_mtu(mtu)

    def body() -> None:
        sim = Simulator()
        testbed = build_testbed(sim, TestbedConfig(mtu_bytes=mtu))
        session = IperfSession(
            testbed,
            total_bytes=total_bytes,
            cca="baseline",
            cca_kwargs={"window_segments": 40},
        )
        (result,) = run_until_complete(testbed, [session])
        if result.retransmissions:
            raise AssertionError("the loopback path lost packets")

    return segments / _seconds(body)


def rangeset_ops_per_s(operations: int) -> float:
    """SACK-style interval churn: add, first_missing_after, trim_below."""
    rng = random.Random(7)
    plan = [
        (rng.randrange(0, 1_000_000), rng.randrange(1, 9000))
        for _ in range(operations // 2)
    ]

    def body() -> None:
        ranges = RangeSet()
        for index, (start, length) in enumerate(plan):
            ranges.add(start, start + length)
            ranges.first_missing_after(start)
            if index % 500 == 499:
                ranges.trim_below(start // 2)

    return len(plan) * 2 / _seconds(body)


class _Context:
    """The least a CCA needs of its sender (``CcContext``)."""

    mss = mss_for_mtu(9000)
    srtt: Optional[float] = 50e-6
    min_rtt: Optional[float] = 40e-6

    def __init__(self) -> None:
        self.now = 0.0

    def charge(self, cost_units: float) -> None:
        pass


def on_ack_ns(name: str, acks: int) -> float:
    """Nanoseconds per ``on_ack`` of one CCA fed synthetic ACKs."""
    mss = _Context.mss

    def body() -> None:
        ctx = _Context()
        algorithm = cc.create(name, ctx)
        for index in range(acks):
            ctx.now = index * 10e-6
            algorithm.on_ack(
                AckEvent(
                    newly_acked_bytes=mss,
                    cumulative_ack=index * mss,
                    rtt_sample=50e-6,
                    flight_bytes=20 * mss,
                    in_recovery=False,
                    ecn_echo=index % 16 == 0,
                    ecn_marked_bytes=mss if index % 16 == 0 else 0,
                    delivery_rate_bps=8e9,
                    is_app_limited=False,
                )
            )

    return _seconds(body) / acks * 1e9


def power_evals_per_s(evaluations: int) -> float:
    model = PowerModel()
    activity = IntervalActivity(
        duration_s=1e-3,
        wire_bytes=1_250_000,
        packet_events=200,
        cc_cost_units=100.0,
        retransmissions=2,
    )

    def body() -> None:
        total = 0.0
        for _ in range(evaluations):
            total += model.power_w(activity)
        if not math.isfinite(total):
            raise AssertionError("power model returned a non-finite value")

    return evaluations / _seconds(body)


def workload_gen_flows_per_s(flows: int) -> float:
    hosts = [f"h{rack}-{slot}" for rack in range(8) for slot in range(8)]
    rack_of = {host: int(host[1]) for host in hosts}

    def body() -> None:
        generate_fabric_workload(hosts=hosts, rack_of=rack_of, n_flows=flows, seed=1)

    return flows / _seconds(body)


def plan_flows_per_s(policy: str, flows: int) -> float:
    rng = random.Random(11)
    requests = [
        FlowRequest(
            index=index,
            size_bytes=rng.randrange(1_000, 5_000_000),
            arrival_s=index * 1e-4,
            src=f"h{index % 64}",
            dst=f"h{(index + 7) % 64}",
        )
        for index in range(flows)
    ]
    context = SchedulingContext(capacity_bps=gbps(10.0), offered_load=0.3)

    def body() -> None:
        get_policy(policy).plan(requests, context)

    return flows / _seconds(body)


def key_us(keys: int) -> float:
    scenario = lossy_scenario(FULL)

    def body() -> None:
        for seed in range(keys):
            compute_key(scenario, seed)

    return _seconds(body) / keys * 1e6


def journal_events_per_s(events: int, tmp: Path) -> float:
    def body() -> None:
        shutil.rmtree(tmp, ignore_errors=True)
        with JournalWriter(tmp / "journal.jsonl", worker=0) as journal:
            for index in range(events):
                journal.write(
                    "run_finished",
                    item=index,
                    scenario="bench",
                    seed=index,
                    energy_j=1.5,
                    sim_time_s=0.01,
                    wall_s=0.1,
                )

    try:
        return events / _seconds(body)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_all(tmp: Path, scale: float = 1.0) -> Dict[str, float]:
    """Every isolated benchmark, by per-layer metric name."""

    def n(count: int) -> int:
        return max(100, int(count * scale))

    return {
        "sim.kernel_events_per_s": kernel_events_per_s(n(60_000)),
        "net.link_pkts_per_s": link_pkts_per_s(n(8_000)),
        "tcp.loopback_segs_per_s": loopback_segs_per_s(n(1_500)),
        "tcp.rangeset_ops_per_s": rangeset_ops_per_s(n(30_000)),
        "cc.on_ack_ns.cubic": on_ack_ns("cubic", n(20_000)),
        "cc.on_ack_ns.bbr": on_ack_ns("bbr", n(20_000)),
        "cc.on_ack_ns.dctcp": on_ack_ns("dctcp", n(20_000)),
        "cc.on_ack_ns.reno": on_ack_ns("reno", n(20_000)),
        "energy.power_evals_per_s": power_evals_per_s(n(40_000)),
        "apps.workload_gen_flows_per_s": workload_gen_flows_per_s(n(10_000)),
        "sched.plan_flows_per_s.fair": plan_flows_per_s("fair", n(1_000)),
        "sched.plan_flows_per_s.srpt": plan_flows_per_s("srpt", n(1_000)),
        "harness.key_us": key_us(n(2_000)),
        "obs.journal_events_per_s": journal_events_per_s(n(5_000), tmp / "journal-bench"),
    }
