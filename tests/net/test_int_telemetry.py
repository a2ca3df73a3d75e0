"""Tests for the in-band network telemetry (INT) path HPCC relies on."""

import pytest

from repro.apps.iperf import IperfSession, run_until_complete
from repro.cc.base import INITIAL_WINDOW_SEGMENTS
from repro.net.link import Interface, Link
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.net.topology import TestbedConfig, build_testbed
from repro.units import gbps


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def make_interface(sim, int_telemetry):
    link = Link(sim, gbps(10), 10e-6)
    sink = Sink()
    link.connect(sink)
    iface = Interface(
        sim, DropTailQueue(1_000_000), link, int_telemetry=int_telemetry
    )
    return iface, sink


def data_packet(payload=1000):
    return Packet(flow_id=1, src="a", dst="b", payload_bytes=payload)


class TestStamping:
    def test_int_fields_stamped_when_enabled(self, sim):
        iface, sink = make_interface(sim, int_telemetry=True)
        iface.enqueue(data_packet())
        sim.run()
        packet = sink.received[0]
        assert packet.int_qlen_bytes is not None
        assert packet.int_tx_bytes > 0
        assert packet.int_link_rate_bps == pytest.approx(gbps(10))

    def test_no_stamping_when_disabled(self, sim):
        iface, sink = make_interface(sim, int_telemetry=False)
        iface.enqueue(data_packet())
        sim.run()
        assert sink.received[0].int_qlen_bytes is None

    def test_acks_not_stamped(self, sim):
        iface, sink = make_interface(sim, int_telemetry=True)
        iface.enqueue(
            Packet(flow_id=1, src="a", dst="b", is_ack=True, ack_seq=1)
        )
        sim.run()
        assert sink.received[0].int_qlen_bytes is None

    def test_queue_depth_visible_in_stamp(self, sim):
        iface, sink = make_interface(sim, int_telemetry=True)
        for _ in range(5):
            iface.enqueue(data_packet())
        sim.run()
        # the first packet left an empty queue; later ones saw backlog
        assert sink.received[0].int_qlen_bytes == 0
        assert sink.received[1].int_qlen_bytes > 0

    def test_tx_bytes_cumulative(self, sim):
        iface, sink = make_interface(sim, int_telemetry=True)
        for _ in range(3):
            iface.enqueue(data_packet())
        sim.run()
        tx = [p.int_tx_bytes for p in sink.received]
        assert tx == sorted(tx)
        assert tx[0] < tx[2]


class TestEndToEndEcho:
    def test_receiver_echoes_int_to_sender(self, sim):
        testbed = build_testbed(sim, TestbedConfig(int_telemetry=True))
        session = IperfSession(testbed, total_bytes=1_000_000, cca="hpcc")
        run_until_complete(testbed, [session], time_limit_s=30)
        # the HPCC controller consumed utilization samples from ACKs:
        # without them it holds its initial window
        sender = session.sender
        assert sender.cca.cwnd != INITIAL_WINDOW_SEGMENTS * sender.mss

    def test_classic_cca_unaffected_by_int(self, sim):
        testbed = build_testbed(sim, TestbedConfig(int_telemetry=True))
        session = IperfSession(testbed, total_bytes=1_000_000, cca="cubic")
        result = run_until_complete(testbed, [session], time_limit_s=30)[0]
        assert result.bytes_transferred == 1_000_000
