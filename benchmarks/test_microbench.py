"""Microbenchmarks of the simulator's hot paths.

Unlike the figure benches (one-shot experiments), these are classic
multi-round pytest-benchmark measurements: event-kernel throughput
(plain and under timer re-arming), the completion driver over many
flows, interval bookkeeping, the power-model arithmetic and a full
small transfer. They guard against performance regressions that would
make the figure benches unusably slow. The timings are reported, not
asserted; the exact work counters that gate on any machine live in
``tests/test_work_counters.py``.
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
