"""Unit tests for the NIC: bonding, MTU policing, qdisc pacing and TSQ hooks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkConfigError
from repro.net.link import Interface, Link
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.units import gbps


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
        nic.send(make_packet())
        nic.send(make_packet())
        sim.run()
        assert len(calls) >= 1

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
                1 for _, _, event in sim._queue
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
