"""Unit tests for the TCP sender: windowing, ACK processing, completion."""

import pytest

from repro.cc.registry import factory
from repro.errors import TcpStateError
from repro.net.packet import Packet
from repro.tcp.sender import TcpSender


def make_sender(sim, host, total=100_000, cca="reno", **kwargs):
    sender = TcpSender(
        sim, host, flow_id=1, dst="receiver",
        cca_factory=factory(cca), total_bytes=total, **kwargs
    )
    return sender


def ack(ack_seq, flow=1, sacks=(), echo=None, ece=False, marked=0):
    return Packet(
        flow_id=flow, src="receiver", dst="stub", is_ack=True,
        ack_seq=ack_seq, sacks=tuple(sacks), echo_time=echo,
        ecn_echo=ece, ecn_marked_bytes=marked,
    )


class TestInitialSend:
    def test_sends_initial_window(self, sim, stub_host):
        sender = make_sender(sim, stub_host)
        sender.start()
        sent = stub_host.pop_all()
        # IW10 at MSS 1460 = 14600 bytes
        assert len(sent) == 10
        assert sent[0].seq == 0
        assert all(p.payload_bytes == 1460 for p in sent)

    def test_does_not_send_before_start(self, sim, stub_host):
        make_sender(sim, stub_host)
        assert stub_host.outbox == []

    def test_short_transfer_partial_segment(self, sim, stub_host):
        sender = make_sender(sim, stub_host, total=2000)
        sender.start()
        sent = stub_host.pop_all()
        assert [p.payload_bytes for p in sent] == [1460, 540]

    def test_mss_from_host_mtu(self, sim, stub_host):
        sender = make_sender(sim, stub_host)
        assert sender.mss == 1460

    def test_write_extends_stream(self, sim, stub_host):
        sender = make_sender(sim, stub_host)
        sender.app_bytes = 0  # nothing written yet, as iperf's -b writer
        sender.start()
        assert stub_host.pop_all() == []
        sender.write(1460)
        assert len(stub_host.pop_all()) == 1


class TestAckProcessing:
    def test_ack_advances_window(self, sim, stub_host):
        sender = make_sender(sim, stub_host)
        sender.start()
        stub_host.pop_all()
        sender.handle_packet(ack(2920))
        assert sender.snd_una == 2920
        assert sender.delivered_bytes == 2920
        # slow start grows cwnd, so new segments flow
        assert len(stub_host.pop_all()) >= 2

    def test_ack_beyond_snd_nxt_rejected(self, sim, stub_host):
        sender = make_sender(sim, stub_host)
        sender.start()
        with pytest.raises(TcpStateError):
            sender.handle_packet(ack(10**9))

    def test_rtt_sample_from_echo(self, sim, stub_host):
        sender = make_sender(sim, stub_host)
        sender.start()
        stub_host.pop_all()
        sim.schedule(0.05, lambda: sender.handle_packet(ack(1460, echo=0.0)))
        sim.run(until=0.06)
        assert sender.rtt.srtt == pytest.approx(0.05)

    def test_bytes_in_flight_accounting(self, sim, stub_host):
        sender = make_sender(sim, stub_host, total=14600)
        sender.start()
        assert sender._in_flight == 14600
        sender.handle_packet(ack(7300))
        assert sender._in_flight == 14600 - 7300

    def test_data_packet_ignored(self, sim, stub_host):
        sender = make_sender(sim, stub_host)
        sender.start()
        sender.handle_packet(
            Packet(flow_id=1, src="x", dst="stub", seq=0, payload_bytes=10)
        )
        assert sender.counters.get("unexpected_data") == 1


class TestCompletion:
    def test_completion_on_final_ack(self, sim, stub_host):
        done = []
        sender = make_sender(sim, stub_host, total=2920)
        sender.on_complete(done.append)
        sender.start()
        sender.handle_packet(ack(2920))
        assert sender.complete
        assert done == [sim.now]
        assert sender.completed_at == sim.now

    def test_callback_registered_after_completion_fires_at_once(
        self, sim, stub_host
    ):
        sender = make_sender(sim, stub_host, total=2920)
        sender.start()
        sim.run(until=0.5)
        sender.handle_packet(ack(2920))
        sim.run(until=2.0)  # the clock moves on past the completion
        done = []
        sender.on_complete(done.append)
        assert done == [0.5]
        sender.handle_packet(ack(2920))  # a stray duplicate ACK
        assert done == [0.5]

    def test_no_send_after_complete(self, sim, stub_host):
        sender = make_sender(sim, stub_host, total=1460)
        sender.start()
        stub_host.pop_all()
        sender.handle_packet(ack(1460))
        sender.write(1000)
        assert stub_host.pop_all() == []

    def test_rto_timer_stopped_on_completion(self, sim, stub_host):
        sender = make_sender(sim, stub_host, total=1460)
        sender.start()
        sender.handle_packet(ack(1460))
        sim.run()  # no timers should fire / hang
        assert sender.counters.get("rtos") == 0


class TestEcnHandling:
    def test_ece_triggers_single_reduction_per_rtt(self, sim, stub_host):
        sender = make_sender(sim, stub_host, cca="reno")
        sender.start()
        stub_host.pop_all()
        sender.rtt.on_sample(0.1)
        cwnd_before = sender.cca.cwnd
        sender.handle_packet(ack(1460, ece=True))
        after_first = sender.cca.cwnd
        assert after_first < cwnd_before
        # second ECE within the same RTT: no further cut
        sender.handle_packet(ack(2920, ece=True))
        assert sender.cca.cwnd >= after_first
        assert sender.counters.get("ecn_reductions") == 1

    def test_ecn_capable_flag_on_segments(self, sim, stub_host):
        sender = make_sender(sim, stub_host, cca="dctcp", ecn_capable=True)
        sender.start()
        assert all(p.ecn_capable for p in stub_host.pop_all())


class TestDeliveryRateSample:
    """An ACK's delivery-rate sample (the BBR-style ``delivery_rate_bps``)
    is taken from the newest segment it covers that was never
    retransmitted, and there is none when it covers only retransmitted
    ones: a retransmission's ACK cannot say which copy arrived (Karn)."""

    MSS = 1460

    def test_retransmitted_segments_give_no_sample(self, sim, stub_host):
        mss = self.MSS
        sender = make_sender(sim, stub_host, total=1_000_000)
        events = []
        make_event = sender._make_event

        def record(*args):
            events.append(make_event(*args))
            return events[-1]

        sender._make_event = record
        sender.start()  # segments 0-9 at t=0, nothing delivered yet
        assert [p.seq for p in stub_host.pop_all()] == [n * mss for n in range(10)]
        sim.run(until=0.01)
        sender.handle_packet(ack(mss))  # slow start sends segments 10, 11
        assert [p.seq for p in stub_host.pop_all()] == [10 * mss, 11 * mss]
        sim.run(until=0.2)  # the RTO resends segments 1 and 2
        assert [(p.seq, p.retransmitted) for p in stub_host.pop_all()] == [
            (mss, True), (2 * mss, True),
        ]
        assert sender.counters.get("rtos") == 1

        sender.handle_packet(ack(2 * mss))  # covers segment 1 only
        assert stub_host.pop_all()  # more of the loss is resent
        sim.run(until=0.25)
        # segments 2-11: retransmitted ones, then 3 .. 9 sent fresh at
        # t=0 with nothing delivered, then 10, 11 sent fresh at t=0.01
        # with one segment delivered
        sender.handle_packet(ack(12 * mss))

        first, retransmitted_only, mixed = events
        assert first.delivery_rate_bps == pytest.approx(mss * 8 / 0.01)
        assert retransmitted_only.newly_acked_bytes == mss
        assert retransmitted_only.delivery_rate_bps is None
        # the newest fresh segment is 11: sent at t=0.01, 1 MSS delivered
        # by then, 12 by now (the oldest fresh one, 3, would read 12 MSS
        # over 0.25 s)
        assert mixed.delivery_rate_bps == pytest.approx(
            (12 * mss - mss) * 8 / (0.25 - 0.01)
        )
