"""Unit tests for the NIC: bonding, MTU policing, qdisc pacing and TSQ hooks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.apps.iperf as iperf
import repro.net.topology as topology
from repro.cc.registry import factory
from repro.errors import NetworkConfigError
from repro.harness.runner import run_once
from repro.net.host import Host
from repro.net.link import Interface, Link
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.tcp.sender import TcpSender
from repro.units import gbps

from tests.tcp.test_wakeup_oracle import SCENARIOS, EveryDrainSender


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def make_iface(sim, sink):
    link = Link(sim, gbps(10), 0.0)
    link.connect(sink)
    return Interface(sim, DropTailQueue(10_000_000), link)


def make_packet(payload=1000, flow=1):
    return Packet(flow_id=flow, src="a", dst="b", payload_bytes=payload)


class TestBonding:
    def test_round_robin_across_interfaces(self, sim):
        sink_a, sink_b = Sink(), Sink()
        nic = Nic([make_iface(sim, sink_a), make_iface(sim, sink_b)], mtu_bytes=9000)
        for _ in range(4):
            nic.send(make_packet())
        sim.run()
        assert len(sink_a.received) == 2
        assert len(sink_b.received) == 2

    def test_bonded_property(self, sim):
        single = Nic([make_iface(sim, Sink())], mtu_bytes=1500)
        double = Nic([make_iface(sim, Sink()), make_iface(sim, Sink())])
        assert not single.bonded
        assert double.bonded

    def test_aggregate_rate(self, sim):
        nic = Nic([make_iface(sim, Sink()), make_iface(sim, Sink())])
        assert nic.aggregate_rate_bps == pytest.approx(2 * gbps(10))


class TestMtuPolicing:
    def test_oversized_packet_rejected(self, sim):
        nic = Nic([make_iface(sim, Sink())], mtu_bytes=1500)
        with pytest.raises(NetworkConfigError):
            nic.send(make_packet(payload=2000))

    def test_mtu_below_ipv4_minimum_rejected(self, sim):
        with pytest.raises(NetworkConfigError):
            Nic([make_iface(sim, Sink())], mtu_bytes=500)

    def test_needs_interface(self):
        with pytest.raises(NetworkConfigError):
            Nic([], mtu_bytes=1500)


class TestPacedTransmitPath:
    def test_gap_requires_sim(self, sim):
        with pytest.raises(NetworkConfigError):
            Nic([make_iface(sim, Sink())], tx_packet_gap_s=1e-6)

    def test_gap_limits_packet_rate(self, sim):
        sink = Sink()
        gap = 10e-6
        nic = Nic(
            [make_iface(sim, sink)], mtu_bytes=9000, sim=sim, tx_packet_gap_s=gap
        )
        for _ in range(5):
            nic.send(make_packet(100))
        sim.run()
        assert len(sink.received) == 5
        # last dispatch happens after 4 gaps (first goes immediately)
        assert sim.now >= 4 * gap

    def test_qdisc_overflow_drops_and_counts(self, sim):
        sink = Sink()
        nic = Nic(
            [make_iface(sim, sink)],
            mtu_bytes=9000,
            sim=sim,
            tx_packet_gap_s=1.0,  # effectively frozen qdisc
            tx_queue_packets=2,
        )
        results = [nic.send(make_packet()) for _ in range(5)]
        # first dispatches immediately, two queue, the rest drop
        assert results == [True, True, True, False, False]
        assert nic.counters.get("qdisc_drops") == 2

    def test_flow_backlog_accounting(self, sim):
        nic = Nic(
            [make_iface(sim, Sink())],
            mtu_bytes=9000,
            sim=sim,
            tx_packet_gap_s=1.0,
        )
        p1 = make_packet(1000, flow=7)
        p2 = make_packet(1000, flow=7)
        nic.send(p1)  # dispatched immediately (queue empty)
        nic.send(p2)  # queued
        assert nic.flow_backlog_bytes(7) == p2.size_bytes
        assert nic.flow_backlog_bytes(99) == 0

    def test_drain_listener_called(self, sim):
        calls = []
        nic = Nic(
            [make_iface(sim, Sink())],
            mtu_bytes=9000,
            sim=sim,
            tx_packet_gap_s=1e-6,
        )
        nic.add_drain_listener(lambda: calls.append(sim.now))
        nic.send(make_packet())  # leaves at once, nobody waiting
        assert calls == []
        nic.drain_waiters += 1  # a listener asks for the next drain
        nic.send(make_packet())
        sim.run()
        assert calls == [pytest.approx(1e-6)]
        assert nic.drain_waiters == 0

    def test_listeners_are_skipped_while_nobody_waits(self, sim):
        calls = []
        nic = Nic(
            [make_iface(sim, Sink())],
            mtu_bytes=9000,
            sim=sim,
            tx_packet_gap_s=1e-6,
        )
        nic.add_drain_listener(lambda: calls.append("first"))
        nic.add_drain_listener(lambda: calls.append("second"))
        for _ in range(4):
            nic.send(make_packet())
        sim.run(until=2.5e-6)  # three of the four drains
        assert calls == []
        nic.drain_waiters += 2
        sim.run()
        # one round for both requests, in registration order
        assert calls == ["first", "second"]

    def test_unpaced_path_bypasses_qdisc(self, sim):
        sink = Sink()
        nic = Nic([make_iface(sim, sink)], mtu_bytes=9000)
        assert nic.send(make_packet())
        assert nic.tx_backlog_packets == 0
        sim.run()
        assert len(sink.received) == 1


class _Wire:
    """Stands in for an egress interface: notes when each packet leaves."""

    def __init__(self, sim):
        self.sim = sim
        self.departures = []

    def enqueue(self, packet):
        self.departures.append(self.sim.now)
        return True


class TestDemandDrivenPacing:
    """The paced NIC keeps a ``_drain`` event only while a packet waits,
    yet emits packets at the instants of a NIC that ticks every gap."""

    GAP = 2.5e-6

    #: bursts of 1-4 packets, 0-8 µs apart: inside the gap, on a tick,
    #: and long after the NIC went idle
    @given(
        pattern=st.lists(
            st.tuples(st.integers(0, 8), st.integers(1, 4)),
            min_size=1, max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_departures_match_an_always_ticking_nic(self, pattern):
        sim = Simulator()
        wire = _Wire(sim)
        nic = Nic([wire], mtu_bytes=9000, sim=sim, tx_packet_gap_s=self.GAP)

        def drain_entries():
            return sum(
                1 for *_, event in sim._queue
                if not event.cancelled and event.callback == nic._drain
            )

        def burst(count):
            # idle means absent from the heap, not ticking into nothing
            assert drain_entries() == (1 if nic.tx_backlog_packets else 0)
            for _ in range(count):
                assert nic.send(make_packet(100))

        send_times = []
        at = 0.0
        for wait_us, count in pattern:
            at += wait_us * 1e-6
            sim.schedule_at(at, burst, count)
            send_times += [at] * count
        sim.run()

        # the reference: a tick every gap from the first packet on, each
        # packet leaving at the first tick that finds it at the head
        expected = []
        for sent in send_times:
            tick = expected[-1] + self.GAP if expected else sent
            expected.append(max(sent, tick))
        assert wire.departures == expected
        assert all(
            later >= earlier + self.GAP
            for earlier, later in zip(expected, expected[1:])
        )
        assert drain_entries() == 0 and nic.tx_backlog_packets == 0
        assert sim.now == expected[-1]  # no tick after the last packet


def test_tsq_blocked_sender_is_woken_by_each_drain(sim):
    # no ACK ever arrives: past the TSQ limit, only the NIC's drains can
    # carry the rest of the initial window out
    nic = Nic(
        [make_iface(sim, Sink())], mtu_bytes=1500, sim=sim, tx_packet_gap_s=1e-5,
    )
    sender = TcpSender(
        sim, Host(sim, "h", nic), 1, "peer", factory("reno"),
        total_bytes=10_000_000, tsq_limit_bytes=2000,
    )
    sender.start()
    assert sender.counters.get("segments_sent") == 3  # one out, two queued
    assert nic.drain_waiters == 1
    sim.run(until=1e-3)  # well before the first RTO
    assert sender.counters.get("segments_sent") == 10
    assert sender.bytes_in_flight == sender.cca.cwnd
    assert nic.drain_waiters == 0  # the window stopped it, not the qdisc


class EveryDrainNic(Nic):
    """Runs its drain listeners on every drain, whoever asked."""

    def _drain(self):
        self.drain_waiters += 1
        super()._drain()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_is_bit_equal_to_waking_every_listener_on_every_drain(
    name, monkeypatch
):
    # the oracle for skipping the listener loop while nobody waits: a
    # NIC that never skips it, under senders that retry on every call
    shipped = run_once(SCENARIOS[name], seed=3)
    monkeypatch.setattr(topology, "Nic", EveryDrainNic)
    monkeypatch.setattr(iperf, "TcpSender", EveryDrainSender)
    assert run_once(SCENARIOS[name], seed=3) == shipped
