"""Tests for the N-to-1 incast shape of ``build_testbed``."""

import pytest

from repro.errors import NetworkConfigError
from repro.net.packet import Packet
from repro.net.topology import TestbedConfig, build_testbed


def incast(sim, fan_in, **config):
    """N sender hosts with one uplink each, as the incast figure runs."""
    return build_testbed(
        sim,
        TestbedConfig(sender_hosts=fan_in, sender_bonded_links=1, **config),
    )


class TestBuild:
    def test_fan_in_count(self, sim):
        testbed = incast(sim, 4)
        assert len(testbed.hosts[:-1]) == 4
        assert testbed.sender is testbed.hosts[0]

    def test_needs_at_least_one_sender(self, sim):
        with pytest.raises(NetworkConfigError):
            incast(sim, 0)

    def test_unique_sender_names(self, sim):
        testbed = incast(sim, 8)
        names = {h.name for h in testbed.hosts[:-1]}
        assert len(names) == 8

    def test_every_sender_reaches_receiver(self, sim):
        testbed = incast(sim, 3)
        got = []

        class Probe:
            def handle_packet(self, packet):
                got.append(packet.src)

        for i in range(3):
            testbed.receiver.register_flow(i, Probe())
        for i, host in enumerate(testbed.hosts[:-1]):
            host.send(
                Packet(flow_id=i, src=host.name, dst="receiver", payload_bytes=100)
            )
        sim.run()
        assert sorted(got) == ["sender-0", "sender-1", "sender-2"]

    def test_ack_path_back_to_each_sender(self, sim):
        testbed = incast(sim, 2)
        got = []

        class Probe:
            def __init__(self, name):
                self.name = name

            def handle_packet(self, packet):
                got.append(self.name)

        for i, host in enumerate(testbed.hosts[:-1]):
            host.register_flow(i, Probe(host.name))
            testbed.receiver.send(
                Packet(flow_id=i, src="receiver", dst=host.name, is_ack=True)
            )
        sim.run()
        assert sorted(got) == ["sender-0", "sender-1"]

    def test_shared_bottleneck(self, sim):
        """All senders funnel through one switch->receiver interface."""
        testbed = incast(sim, 4)
        to_receiver = Packet(0, "sender-0", "receiver")
        assert testbed.switches[0].port_for_packet(to_receiver) is testbed.bottleneck

    def test_config_respected(self, sim):
        testbed = incast(sim, 2, mtu_bytes=1500)
        assert all(h.mtu_bytes == 1500 for h in testbed.hosts[:-1])
        assert testbed.receiver.mtu_bytes == 1500

    def test_each_sender_has_its_own_uplinks(self, sim):
        testbed = build_testbed(
            sim, TestbedConfig(sender_hosts=2, sender_bonded_links=2)
        )
        names = [
            [i.name for i in host.nic.interfaces] for host in testbed.hosts[:-1]
        ]
        assert names == [["snd0-if-0", "snd0-if-1"], ["snd1-if-0", "snd1-if-1"]]
