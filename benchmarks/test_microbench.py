"""Microbenchmarks of the simulator's hot paths.

Unlike the figure benches (one-shot experiments), these are classic
multi-round pytest-benchmark measurements: event-kernel throughput
(plain and under timer re-arming), the completion driver over many
flows, interval bookkeeping, the power-model arithmetic and a full
small transfer. They guard against performance regressions that would
make the figure benches unusably slow. One case also pins *exact* work
counters (heap pushes, cancels, sender wake-ups) of the canonical fig1
fair run, which gate on any machine.
"""

import random

from repro.energy.power_model import IntervalActivity, PowerModel
from repro.net.packet import Packet
from repro.net.queue import PriorityQueue
from repro.sim.engine import Simulator
from repro.sim.timer import Timer
from repro.tcp.ranges import RangeSet


def test_event_kernel_throughput(benchmark):
    """Schedule + execute 10k events."""

    def run():
        sim = Simulator()
        for i in range(10_000):
            sim.schedule(i * 1e-6, lambda: None)
        sim.run()
        return sim.events_executed

    executed = benchmark(run)
    assert executed == 10_000


def test_event_kernel_cancel_rearm(benchmark):
    """10k events, 30 % of which push an armed RTO-style Timer out.
    The timer re-arms in place: 3 000 restarts cost two heap entries,
    not 3 000 cancelled ones."""

    def run():
        sim = Simulator()
        rto = Timer(sim, lambda: None)

        def ack(index):
            if index % 10 < 3:
                rto.start(1.0)

        for i in range(10_000):
            sim.schedule(i * 1e-6, ack, i)
        sim.run()
        return sim.events_executed, sim.queued_events

    executed, queued = benchmark(run)
    # every ack, the timer's one heap entry waking early (the deadline
    # moved on after it was pushed), and its re-push firing at the deadline
    assert executed == 10_002
    assert queued == 0


class _TimedFlow:
    """The completion driver's flow duck type, finishing at a set time."""

    def __init__(self, sim, flow_id, done_at):
        self.flow_id = flow_id
        self.complete = False
        self._callbacks = []
        sim.schedule_at(done_at, self._finish, done_at)

    def on_complete(self, callback):
        self._callbacks.append(callback)

    def _finish(self, now):
        self.complete = True
        for callback in self._callbacks:
            callback(now)


def test_completion_driver_400_flows(benchmark):
    """400 flows finishing one by one across 20k other events: the
    driver's own cost must not scale with flows x events."""
    from repro.apps.iperf import drive_until_complete

    def run():
        sim = Simulator()
        flows = [_TimedFlow(sim, i + 1, (i + 1) * 50e-6) for i in range(400)]
        for i in range(20_000):
            sim.schedule(i * 1e-6, lambda: None)
        drive_until_complete(sim, flows, 1.0, "bench")
        return sim.events_executed

    executed = benchmark(run)
    assert executed == 20_400


#: Exact work of the canonical fig1 fair run (two 400 kB CUBIC flows,
#: seed 0 — the scenario `make obs-diff` and `perf-diff` replay). These
#: are counts, not timings: they repeat exactly on every machine, so a
#: change that moves one either meant to (update the number and say why)
#: or made the hot path do more work than it needs to.
FAIR_RUN_WORK = {
    "segments": 90,      # TcpSender._send_packet
    "acks": 46,          # TcpSender._handle_packet
    # 7.1 per segment: serialisation and propagation on each link hop
    # (the segment's, and its share of an ACK's), NIC drains, and what
    # is left of the timers (was 779)
    "heap_pushes": 643,  # Simulator.schedule_at
    # ~0 per ACK: RTO and delayed-ACK timers re-arm in place (was 91)
    "cancels": 3,        # Event.cancel
    # 1.2 per ACK: one per ACK, one per start, and only the qdisc
    # drains that found the sender blocked by the qdisc (was 233)
    "try_send_entries": 54,  # TcpSender._try_send
}


def test_fig1_fair_run_work_counters(benchmark, monkeypatch):
    """Wall time of the canonical fair run, then its exact work."""
    from repro.core.allocation import FAIR_PLAN_NAME, fig1_allocations
    from repro.figures.fig1 import DEFAULT_CAPACITY_BPS
    from repro.harness.experiment import scenario_from_plan
    from repro.harness.runner import run_once
    from repro.sim.engine import Event
    from repro.tcp.sender import TcpSender

    plan = next(
        plan
        for plan in fig1_allocations(400_000, DEFAULT_CAPACITY_BPS, (0.5,))
        if plan.name == FAIR_PLAN_NAME
    )
    scenario = scenario_from_plan("fig1-fair", plan)
    untraced = benchmark(run_once, scenario, 0)

    work = dict.fromkeys(FAIR_RUN_WORK, 0)

    def count(owner, method, key):
        original = getattr(owner, method)

        def counted(*args, **kwargs):
            work[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, method, counted)

    count(TcpSender, "_send_packet", "segments")
    count(TcpSender, "_handle_packet", "acks")
    count(Simulator, "schedule_at", "heap_pushes")
    count(Event, "cancel", "cancels")
    count(TcpSender, "_try_send", "try_send_entries")
    assert run_once(scenario, 0) == untraced
    assert work == FAIR_RUN_WORK


def test_rangeset_mixed_workload(benchmark):
    """SACK-style interval churn: adds, queries, trims."""
    rng = random.Random(7)
    operations = [
        (rng.randrange(0, 1_000_000), rng.randrange(1, 9000))
        for _ in range(2_000)
    ]

    def run():
        rs = RangeSet()
        for start, length in operations:
            rs.add(start, start + length)
            rs.first_missing_after(start)
        rs.trim_below(500_000)
        return rs.total_bytes

    total = benchmark(run)
    assert total > 0


def test_power_model_arithmetic(benchmark):
    """Per-interval power evaluation (runs once per sample per package)."""
    model = PowerModel()
    activity = IntervalActivity(
        duration_s=1e-3,
        wire_bytes=1_250_000,
        packet_events=200,
        cc_cost_units=100.0,
        retransmissions=2,
    )

    def run():
        total = 0.0
        for _ in range(1_000):
            total += model.power_w(activity)
        return total

    total = benchmark(run)
    assert total > 0


def test_priority_queue_churn(benchmark):
    """pFabric enqueue/dequeue under multi-flow contention."""
    rng = random.Random(3)
    arrivals = [
        (rng.randrange(8), rng.randrange(1, 1_000_000)) for _ in range(2_000)
    ]

    def run():
        queue = PriorityQueue(capacity_bytes=200_000)
        delivered = 0
        for flow, priority in arrivals:
            queue.enqueue(
                Packet(
                    flow_id=flow, src="a", dst="b",
                    payload_bytes=1000, priority=priority,
                )
            )
            if queue.occupancy_bytes > 100_000:
                packet = queue.dequeue()
                delivered += packet is not None
        return delivered

    delivered = benchmark(run)
    assert delivered > 0


def test_end_to_end_small_transfer(benchmark):
    """A complete 1 MB CUBIC transfer through the full stack."""
    from repro.apps.iperf import IperfSession, run_until_complete
    from repro.net.topology import TestbedConfig, build_testbed

    def run():
        sim = Simulator()
        testbed = build_testbed(sim, TestbedConfig())
        session = IperfSession(testbed, total_bytes=1_000_000)
        result = run_until_complete(testbed, [session])[0]
        return result.bytes_transferred

    transferred = benchmark(run)
    assert transferred == 1_000_000
