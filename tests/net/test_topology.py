"""Unit tests for the paper-testbed topology builder."""

import pytest

from repro.errors import NetworkConfigError
from repro.net.nic import HOST_MIN_PACKET_GAP_S
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue, EcnQueue
from repro.net.topology import TestbedConfig, build_testbed
from repro.units import gbps, usec


class TestConfig:
    def test_defaults_match_paper(self):
        config = TestbedConfig()
        assert TestbedConfig.link_rate_bps == config.link_rate_bps == gbps(10)
        assert config.mtu_bytes == 9000
        assert config.sender_bonded_links == 2

    def test_base_rtt(self):
        assert TestbedConfig.link_delay_s == usec(10)
        # four propagation delays: sender->switch->receiver and back
        assert 4 * TestbedConfig.link_delay_s == pytest.approx(40e-6)

    def test_needs_at_least_one_link(self):
        with pytest.raises(NetworkConfigError):
            TestbedConfig(sender_bonded_links=0)


class TestBuild:
    def test_sender_has_bonded_nic(self, testbed):
        assert len(testbed.sender.nic.interfaces) == 2

    def test_bottleneck_is_ecn_capable_by_default(self, testbed):
        assert isinstance(testbed.bottleneck.queue, EcnQueue)

    def test_ecn_disabled_when_threshold_none(self, sim):
        tb = build_testbed(sim, TestbedConfig(ecn_threshold_bytes=None))
        assert isinstance(tb.bottleneck.queue, DropTailQueue)
        assert not isinstance(tb.bottleneck.queue, EcnQueue)

    def test_bottleneck_rate(self, testbed):
        assert testbed.bottleneck.link.rate_bps == gbps(10)

    def test_data_path_sender_to_receiver(self, sim, testbed):
        """A raw packet injected at the sender reaches the receiver."""
        received = []

        class Probe:
            def handle_packet(self, packet):
                received.append(packet)

        testbed.receiver.register_flow(5, Probe())
        testbed.sender.send(
            Packet(flow_id=5, src="sender", dst="receiver", payload_bytes=100)
        )
        sim.run()
        assert len(received) == 1

    def test_ack_path_receiver_to_sender(self, sim, testbed):
        received = []

        class Probe:
            def handle_packet(self, packet):
                received.append(packet)

        testbed.sender.register_flow(5, Probe())
        testbed.receiver.send(
            Packet(flow_id=5, src="receiver", dst="sender", is_ack=True)
        )
        sim.run()
        assert len(received) == 1

    def test_host_gap_applied_to_nics(self, testbed):
        assert HOST_MIN_PACKET_GAP_S == usec(2.35)
        assert testbed.sender.nic.tx_packet_gap_s == HOST_MIN_PACKET_GAP_S
        assert testbed.receiver.nic.tx_packet_gap_s == HOST_MIN_PACKET_GAP_S

    def test_mtu_propagates(self, sim):
        tb = build_testbed(sim, TestbedConfig(mtu_bytes=1500))
        assert tb.sender.mtu_bytes == 1500
        assert tb.receiver.mtu_bytes == 1500
