"""TCP corner cases: reordering, tiny transfers, odd MTUs, stale ACKs."""

import pytest

from repro.apps.iperf import IperfSession, run_until_complete
from repro.cc.registry import factory
from repro.net.packet import Packet
from repro.net.topology import TestbedConfig, build_testbed
from repro.sim.engine import Simulator
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender


def ack(ack_seq, flow=1, sacks=()):
    return Packet(
        flow_id=flow, src="receiver", dst="stub", is_ack=True,
        ack_seq=ack_seq, sacks=tuple(sacks),
    )


class TestTinyTransfers:
    @pytest.mark.parametrize("size", [1, 100, 1460, 1461, 2920])
    def test_sub_window_transfers_complete(self, size):
        sim = Simulator()
        testbed = build_testbed(sim, TestbedConfig())
        session = IperfSession(testbed, total_bytes=size)
        result = run_until_complete(testbed, [session], time_limit_s=10)[0]
        assert result.bytes_transferred == size
        assert session.receiver.bytes_received == size

    def test_one_byte_flow_fct_is_about_one_rtt(self):
        sim = Simulator()
        testbed = build_testbed(sim, TestbedConfig())
        session = IperfSession(testbed, total_bytes=1)
        result = run_until_complete(testbed, [session], time_limit_s=10)[0]
        # 4 propagation legs + serialization + delack; well under 1 ms
        assert result.duration_s < 1e-3


class TestOddMtus:
    @pytest.mark.parametrize("mtu", [576, 1280, 4000, 8999])
    def test_non_standard_mtus_work(self, mtu):
        sim = Simulator()
        testbed = build_testbed(sim, TestbedConfig(mtu_bytes=mtu))
        session = IperfSession(testbed, total_bytes=500_000)
        result = run_until_complete(testbed, [session], time_limit_s=30)[0]
        assert result.bytes_transferred == 500_000


class TestStaleAndDuplicateAcks:
    def make_sender(self, sim, stub_host, total=100_000):
        return TcpSender(
            sim, stub_host, flow_id=1, dst="r",
            cca_factory=factory("reno"), total_bytes=total,
        )

    def test_old_ack_after_progress_is_ignored(self, sim, stub_host):
        sender = self.make_sender(sim, stub_host)
        sender.start()
        stub_host.pop_all()
        sender.handle_packet(ack(2920))
        snd_una = sender.snd_una
        # a reordered, stale cumulative ACK arrives late
        sender.handle_packet(ack(1460))
        assert sender.snd_una == snd_una
        assert not sender.in_recovery

    def test_duplicate_final_ack_harmless(self, sim, stub_host):
        sender = self.make_sender(sim, stub_host, total=1460)
        sender.start()
        sender.handle_packet(ack(1460))
        assert sender.complete
        sender.handle_packet(ack(1460))  # dup of the final ACK
        assert sender.complete

    def test_sack_below_snd_una_ignored(self, sim, stub_host):
        sender = self.make_sender(sim, stub_host)
        sender.start()
        sender.handle_packet(ack(5840))
        sender.handle_packet(ack(5840, sacks=[(0, 1460)]))  # ancient sack
        assert sender._in_flight == sender.snd_nxt - 5840

    def test_empty_sack_block_ignored(self, sim, stub_host):
        sender = self.make_sender(sim, stub_host)
        sender.start()
        sender.handle_packet(ack(1460, sacks=[(5000, 5000)]))
        assert sender.snd_una == 1460


class TestReordering:
    def test_mild_reordering_no_spurious_retransmit(self):
        """Out-of-order delivery within the dupack threshold must not
        trigger fast retransmit."""
        sim = Simulator()
        testbed = build_testbed(sim, TestbedConfig())
        receiver_host = testbed.receiver
        # Deliver segments 0,2,1 by hand through a receiver.
        receiver = TcpReceiver(
            sim, receiver_host, flow_id=77, peer="sender",
            expected_bytes=3 * 1000,
        )

        def seg(seq):
            return Packet(
                flow_id=77, src="sender", dst="receiver", seq=seq,
                payload_bytes=1000,
            )

        receiver.handle_packet(seg(0))
        receiver.handle_packet(seg(2000))  # one-packet reorder
        receiver.handle_packet(seg(1000))
        assert receiver.rcv_nxt == 3000
        assert receiver.complete

    def test_receiver_tolerates_duplicate_flood(self, sim, stub_host):
        receiver = TcpReceiver(
            sim, stub_host, flow_id=1, peer="sender", expected_bytes=2000
        )
        packet = Packet(
            flow_id=1, src="sender", dst="stub", seq=0, payload_bytes=1000
        )
        for _ in range(50):
            receiver.handle_packet(packet)
        assert receiver.bytes_received == 1000
        assert receiver.counters.get("duplicate_segments") == 49


class TestWriteAfterStart:
    def test_streaming_writes(self, sim, stub_host):
        sender = TcpSender(
            sim, stub_host, flow_id=1, dst="r",
            cca_factory=factory("reno"), total_bytes=4380,
        )
        sender.app_bytes = 0  # nothing staged yet
        sender.start()
        assert stub_host.pop_all() == []
        sender.write(1460)
        assert len(stub_host.pop_all()) == 1
        sender.write(2920)
        assert len(stub_host.pop_all()) == 2

    def test_negative_write_rejected(self, sim, stub_host):
        from repro.errors import TcpStateError

        sender = TcpSender(
            sim, stub_host, flow_id=1, dst="r",
            cca_factory=factory("reno"), total_bytes=4380,
        )
        with pytest.raises(TcpStateError):
            sender.write(-1)
