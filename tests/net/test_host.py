"""Unit tests for hosts: demux, per-flow tallies, counters."""

import pytest

from repro.errors import NetworkConfigError
from repro.net.host import Host, HostListener
from repro.net.link import Interface, Link
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.units import gbps


class Endpoint:
    def __init__(self):
        self.packets = []

    def handle_packet(self, packet):
        self.packets.append(packet)

    def receive(self, packet):  # also usable as a link sink
        self.packets.append(packet)


class Tally:
    def __init__(self):
        self.wire_bytes = 0
        self.packet_events = 0
        self.retransmissions = 0
        self.cc_units = 0.0


class Recorder(HostListener):
    """A listener with one tally per flow, noting every question."""

    def __init__(self):
        self.tallies = {}
        self.asked = []

    def tally_for(self, flow_id):
        self.asked.append(flow_id)
        return self.tallies.setdefault(flow_id, Tally())


def make_host(sim, name="h"):
    host = Host(sim, name)
    link = Link(sim, gbps(10), 0.0)
    link.connect(Endpoint())  # discard
    nic = Nic(sim, [Interface(sim, DropTailQueue(1_000_000), link)], mtu_bytes=9000)
    host.attach_nic(nic)
    return host


def make_packet(flow=1, retransmitted=False):
    return Packet(
        flow_id=flow, src="a", dst="b", payload_bytes=100,
        retransmitted=retransmitted,
    )


class TestDemux:
    def test_receive_dispatches_by_flow(self, sim):
        host = make_host(sim)
        ep1, ep2 = Endpoint(), Endpoint()
        host.register_flow(1, ep1)
        host.register_flow(2, ep2)
        host.receive(make_packet(flow=2))
        assert ep1.packets == []
        assert len(ep2.packets) == 1

    def test_unroutable_counted_not_raised(self, sim):
        host = make_host(sim)
        host.receive(make_packet(flow=99))
        assert host.counters.get("rx_unroutable") == 1

    def test_duplicate_flow_rejected(self, sim):
        host = make_host(sim)
        host.register_flow(1, Endpoint())
        with pytest.raises(NetworkConfigError):
            host.register_flow(1, Endpoint())


class TestListeners:
    def test_send_event_published(self, sim):
        host = make_host(sim)
        rec = Recorder()
        host.add_listener(rec)
        packet = make_packet()
        host.send(packet)
        tally = rec.tallies[1]
        assert (tally.wire_bytes, tally.packet_events) == (packet.wire_bytes, 1)
        assert tally.retransmissions == 0

    def test_receive_charges_the_flow(self, sim):
        host = make_host(sim)
        rec = Recorder()
        host.add_listener(rec)
        packet = make_packet(flow=3)
        host.receive(packet)  # unroutable, but the host did the work
        tally = rec.tallies[3]
        assert (tally.wire_bytes, tally.packet_events) == (packet.wire_bytes, 1)

    def test_retransmit_event_published(self, sim):
        host = make_host(sim)
        rec = Recorder()
        host.add_listener(rec)
        host.send(make_packet(retransmitted=True))
        assert rec.tallies[1].retransmissions == 1
        assert rec.tallies[1].packet_events == 1
        assert host.counters.get("retransmissions") == 1

    def test_cc_op_event_carries_flow(self, sim):
        host = make_host(sim)
        rec = Recorder()
        host.add_listener(rec)
        host.notify_cc_op(1.35, flow_id=7)
        host.notify_cc_op(0.5, flow_id=7)
        assert list(rec.tallies) == [7]
        assert rec.tallies[7].cc_units == 1.35 + 0.5
        assert host.counters.get("cc_ops") == 2

    def test_a_flows_tally_is_asked_for_once(self, sim):
        host = make_host(sim)
        rec = Recorder()
        host.add_listener(rec)
        for _ in range(3):
            host.send(make_packet(flow=1))
            host.receive(make_packet(flow=2))
            host.notify_cc_op(1.0, flow_id=1)
        host.send(make_packet(flow=2, retransmitted=True))
        assert rec.asked == [1, 2]
        assert rec.tallies[1].packet_events == 3
        assert rec.tallies[2].packet_events == 4

    def test_forget_tally_asks_again(self, sim):
        host = make_host(sim)
        rec = Recorder()
        host.add_listener(rec)
        host.send(make_packet(flow=1))
        host.forget_tally(1)
        host.send(make_packet(flow=1))
        assert rec.asked == [1, 1]

    def test_an_unaccounted_host_charges_nobody(self, sim):
        host = make_host(sim)
        host.send(make_packet(retransmitted=True))
        host.notify_cc_op(1.0, flow_id=1)
        assert host.counters.get("tx_packets") == 1

    def test_a_second_listener_is_rejected(self, sim):
        host = make_host(sim)
        host.add_listener(Recorder())
        with pytest.raises(NetworkConfigError, match="already has a listener"):
            host.add_listener(Recorder())

    def test_send_stamps_time(self, sim):
        host = make_host(sim)
        sim.schedule(1.0, lambda: host.send(make_packet()))
        p = make_packet()
        sim.schedule(2.0, lambda: host.send(p))
        sim.run()
        assert p.sent_time == 2.0


class TestWiring:
    def test_send_without_nic_raises(self, sim):
        host = Host(sim, "bare")
        with pytest.raises(NetworkConfigError):
            host.send(make_packet())

    def test_mtu_without_nic_raises(self, sim):
        host = Host(sim, "bare")
        with pytest.raises(NetworkConfigError):
            _ = host.mtu_bytes

    def test_mtu_reflects_nic(self, sim):
        host = make_host(sim)
        assert host.mtu_bytes == 9000
