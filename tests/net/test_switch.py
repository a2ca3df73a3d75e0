"""Unit tests for the output-queued switch."""

import random

import pytest

from repro.apps.iperf import IperfSession
from repro.errors import NetworkConfigError
from repro.net.link import Interface, Link
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.net.switch import Switch
from repro.net.topology import TestbedConfig, build_testbed
from repro.units import gbps


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def make_port(sim, sink, capacity=1_000_000):
    link = Link(sim, gbps(10), 0.0)
    link.connect(sink)
    return Interface(sim, DropTailQueue(capacity), link)


def make_packet(dst, payload=1000):
    return Packet(flow_id=1, src="src", dst=dst, payload_bytes=payload)


class TestForwarding:
    def test_routes_by_destination(self, sim):
        switch = Switch()
        sink_a, sink_b = Sink(), Sink()
        switch.add_port("hostA", make_port(sim, sink_a))
        switch.add_port("hostB", make_port(sim, sink_b))
        switch.receive(make_packet("hostA"))
        switch.receive(make_packet("hostB"))
        switch.receive(make_packet("hostB"))
        sim.run()
        assert len(sink_a.received) == 1
        assert len(sink_b.received) == 2

    def test_unknown_destination_raises(self, sim):
        switch = Switch()
        with pytest.raises(NetworkConfigError):
            switch.receive(make_packet("nowhere"))

    def test_duplicate_route_rejected(self, sim):
        switch = Switch()
        switch.add_port("hostA", make_port(sim, Sink()))
        with pytest.raises(NetworkConfigError):
            switch.add_port("hostA", make_port(sim, Sink()))

    def test_port_for_lookup(self, sim):
        switch = Switch()
        port = make_port(sim, Sink())
        switch.add_port("hostA", port)
        assert switch.port_for_packet(make_packet("hostA")) is port

    def test_forward_drop_counted(self, sim):
        switch = Switch()
        switch.add_port("hostA", make_port(sim, Sink(), capacity=1100))
        for _ in range(4):
            switch.receive(make_packet("hostA"))
        assert switch.counters.get("forward_drops") == 2
        assert switch.counters.get("rx_packets") == 4


class TestReceiveCounters:
    def test_port_sums_equal_the_packets_receive_took(self, sim):
        """``rx_packets``/``rx_bytes`` are read off the ports; checked
        against a wrapper that counts every ``receive`` call, at
        instants when packets are queued, dropped at a full bottleneck
        and corrupted on two lossy links: a sender uplink, whose lost
        frames never reach the switch, and the switch's own bottleneck
        link, whose lost frames the switch did receive."""
        testbed = build_testbed(
            sim, TestbedConfig(buffer_bytes=45_000, ecn_threshold_bytes=None)
        )
        switch = testbed.tiers["switch"][0]
        uplink = testbed.sender.nic.interfaces[0].link
        for link, seed in ((uplink, 1), (testbed.bottleneck.link, 2)):
            link.loss_rate = 0.02
            link.loss_rng = random.Random(seed)
        taken = []
        forward = switch.receive

        def counting(packet):
            taken.append(packet.size_bytes)
            forward(packet)

        switch.receive = counting
        IperfSession(testbed, total_bytes=2_000_000, cca="cubic")
        queued = 0
        for step in range(1, 41):
            sim.run(until=step * 50e-6)
            queued += len(testbed.bottleneck.queue)
            assert (switch.rx_packets, switch.rx_bytes) == (len(taken), sum(taken))
        assert queued
        assert testbed.bottleneck.queue.counters.get("drops")
        assert uplink.counters.get("corrupted")
        assert testbed.bottleneck.link.counters.get("corrupted")
