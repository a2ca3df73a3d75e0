"""Unit tests for the TCP receiver: ACK generation, SACK, ECN echo."""

import pytest

from repro.net.packet import Packet
from repro.tcp.receiver import DEFAULT_DELACK_TIMEOUT, TcpReceiver


def data(seq, length, flow=1, marked=False, sent_time=0.0):
    return Packet(
        flow_id=flow,
        src="sender",
        dst="stub",
        seq=seq,
        payload_bytes=length,
        ecn_marked=marked,
        sent_time=sent_time,
    )


@pytest.fixture
def receiver(sim, stub_host):
    return TcpReceiver(
        sim, stub_host, flow_id=1, peer="sender", expected_bytes=10_000
    )


class TestCumulativeAck:
    def test_in_order_delayed_ack(self, sim, stub_host, receiver):
        receiver.handle_packet(data(0, 1000))
        assert stub_host.outbox == []  # first segment: delayed
        receiver.handle_packet(data(1000, 1000))
        acks = stub_host.pop_all()
        assert len(acks) == 1
        assert acks[0].ack_seq == 2000

    def test_delack_timer_flushes_single_segment(self, sim, stub_host, receiver):
        arrived = sim.now
        receiver.handle_packet(data(0, 1000))
        sim.run()  # let the delack timer fire
        acks = stub_host.pop_all()
        assert len(acks) == 1
        assert acks[0].ack_seq == 1000
        assert acks[0].sent_time == arrived + DEFAULT_DELACK_TIMEOUT

    def test_bytes_received_counts_once(self, sim, stub_host, receiver):
        receiver.handle_packet(data(0, 1000))
        receiver.handle_packet(data(0, 1000))  # duplicate
        assert receiver.bytes_received == 1000
        assert receiver.counters.get("duplicate_segments") == 1


class TestConstants:
    """The delayed-ACK timeout and the receive-window ceiling shape every
    run's ACK clock and a constant-cwnd sender's burst; each is pinned by
    what the receiver sends, against a literal."""

    def test_a_lone_segment_is_acked_500_us_after_it_lands(
        self, sim, stub_host, receiver
    ):
        sim.schedule_at(0.25, receiver.handle_packet, data(0, 1000))
        sim.run()
        (ack,) = stub_host.pop_all()
        assert ack.sent_time == 0.25 + 500e-6

    def test_the_advertised_window_stops_growing_at_6_mib(self, sim, stub_host):
        segment = 64 * 1024
        receiver = TcpReceiver(
            sim, stub_host, flow_id=1, peer="sender", expected_bytes=8 << 20
        )
        for seq in range(0, 8 << 20, segment):
            receiver.handle_packet(data(seq, segment))
        windows = [ack.rwnd_bytes for ack in stub_host.pop_all()]
        assert windows == sorted(windows)  # it opens with the data received
        assert windows[0] == 3 * segment  # the 64 KiB start + two segments
        assert windows[-1] == 6 * 1024 * 1024
        assert windows.count(windows[-1]) > len(windows) // 4


class TestOutOfOrder:
    def test_gap_triggers_immediate_dupack_with_sack(self, sim, stub_host, receiver):
        receiver.handle_packet(data(0, 1000))
        receiver.handle_packet(data(1000, 1000))
        stub_host.pop_all()
        receiver.handle_packet(data(3000, 1000))  # hole at 2000
        acks = stub_host.pop_all()
        assert len(acks) == 1
        assert acks[0].ack_seq == 2000
        assert acks[0].sacks == ((3000, 4000),)

    def test_hole_fill_advances_cumulative(self, sim, stub_host, receiver):
        receiver.handle_packet(data(0, 1000))
        receiver.handle_packet(data(2000, 1000))
        stub_host.pop_all()
        receiver.handle_packet(data(1000, 1000))  # fills hole
        acks = stub_host.pop_all()
        assert acks[-1].ack_seq == 3000
        assert acks[-1].sacks == ()

    def test_duplicate_triggers_immediate_ack(self, sim, stub_host, receiver):
        receiver.handle_packet(data(0, 1000))
        receiver.handle_packet(data(1000, 1000))
        stub_host.pop_all()
        receiver.handle_packet(data(0, 1000))  # spurious retransmit
        acks = stub_host.pop_all()
        assert len(acks) == 1
        assert acks[0].ack_seq == 2000


class TestEcn:
    def test_ce_state_change_forces_ack(self, sim, stub_host, receiver):
        receiver.handle_packet(data(0, 1000, marked=True))
        acks = stub_host.pop_all()
        assert len(acks) == 1
        assert acks[0].ecn_echo

    def test_marked_bytes_reported(self, sim, stub_host, receiver):
        receiver.handle_packet(data(0, 1000, marked=True))
        acks = stub_host.pop_all()
        assert acks[0].ecn_marked_bytes == 1000

    def test_marked_bytes_reset_after_ack(self, sim, stub_host, receiver):
        receiver.handle_packet(data(0, 1000, marked=True))
        stub_host.pop_all()
        receiver.handle_packet(data(1000, 1000, marked=True))
        receiver.handle_packet(data(2000, 1000, marked=True))
        acks = stub_host.pop_all()
        total = sum(a.ecn_marked_bytes for a in acks)
        assert total == 2000  # only the bytes since the previous ACK

    def test_ce_clear_also_forces_ack(self, sim, stub_host, receiver):
        receiver.handle_packet(data(0, 1000, marked=True))
        stub_host.pop_all()
        receiver.handle_packet(data(1000, 1000, marked=False))
        acks = stub_host.pop_all()
        assert len(acks) == 1
        assert not acks[0].ecn_echo


class TestCompletion:
    def test_completion_is_stamped_once(self, sim, stub_host, receiver):
        sim.run(until=0.5)
        for seq in range(0, 10_000, 1000):
            receiver.handle_packet(data(seq, 1000))
        assert receiver.completed_at == 0.5
        sim.run(until=2.0)  # the clock moves on past the completion
        receiver.handle_packet(data(9000, 1000))  # a duplicate segment
        assert receiver.completed_at == 0.5

    def test_echo_time_reflected(self, sim, stub_host, receiver):
        receiver.handle_packet(data(0, 1000, sent_time=1.25))
        receiver.handle_packet(data(1000, 1000, sent_time=1.5))
        acks = stub_host.pop_all()
        assert acks[0].echo_time == 1.5

    def test_stray_ack_ignored(self, sim, stub_host, receiver):
        receiver.handle_packet(
            Packet(flow_id=1, src="x", dst="stub", is_ack=True, ack_seq=5)
        )
        assert receiver.counters.get("stray_acks") == 1
