"""Unit tests for sender loss recovery: dupacks, SACK scoreboard, RTO."""

import pytest

from repro.cc.registry import factory
from repro.net.packet import Packet
from repro.tcp.sender import DUPACK_THRESHOLD, TcpSender


def make_sender(sim, host, total=100_000, cca="reno"):
    return TcpSender(
        sim, host, flow_id=1, dst="receiver",
        cca_factory=factory(cca), total_bytes=total,
    )


def ack(ack_seq, sacks=(), flow=1):
    return Packet(
        flow_id=flow, src="receiver", dst="stub", is_ack=True,
        ack_seq=ack_seq, sacks=tuple(sacks),
    )


class TestFastRetransmit:
    def test_three_dupacks_trigger_retransmit(self, sim, stub_host):
        sender = make_sender(sim, stub_host)
        sender.start()
        stub_host.pop_all()
        for _ in range(DUPACK_THRESHOLD):
            sender.handle_packet(ack(0))
        retx = [p for p in stub_host.pop_all() if p.retransmitted]
        assert len(retx) >= 1
        assert retx[0].seq == 0
        assert sender.in_recovery
        assert sender.counters.get("fast_recoveries") == 1

    def test_two_dupacks_do_not_trigger(self, sim, stub_host):
        sender = make_sender(sim, stub_host)
        sender.start()
        stub_host.pop_all()
        for _ in range(2):
            sender.handle_packet(ack(0))
        assert not sender.in_recovery
        assert all(not p.retransmitted for p in stub_host.pop_all())

    def test_sack_bytes_trigger_early(self, sim, stub_host):
        """3 MSS of SACKed data infers loss before 3 pure dupacks."""
        sender = make_sender(sim, stub_host)
        sender.start()
        stub_host.pop_all()
        sender.handle_packet(ack(0, sacks=[(1460, 1460 + 3 * 1460)]))
        assert sender.in_recovery

    def test_cwnd_reduced_on_recovery_entry(self, sim, stub_host):
        sender = make_sender(sim, stub_host)
        sender.start()
        stub_host.pop_all()
        before = sender.cca.cwnd
        for _ in range(DUPACK_THRESHOLD):
            sender.handle_packet(ack(0))
        assert sender.cca.ssthresh < before

    def test_recovery_exit_on_full_ack(self, sim, stub_host):
        sender = make_sender(sim, stub_host)
        sender.start()
        stub_host.pop_all()
        recovery_point = sender.snd_nxt
        for _ in range(DUPACK_THRESHOLD):
            sender.handle_packet(ack(0))
        sender.handle_packet(ack(recovery_point))
        assert not sender.in_recovery
        assert sender.counters.get("recovery_exits") == 1

    def test_partial_ack_retransmits_next_hole(self, sim, stub_host):
        sender = make_sender(sim, stub_host)
        sender.start()
        stub_host.pop_all()
        for _ in range(DUPACK_THRESHOLD):
            sender.handle_packet(ack(0))
        stub_host.pop_all()
        sender.handle_packet(ack(1460))  # partial: hole at 1460
        retx = [p for p in stub_host.pop_all() if p.retransmitted]
        assert any(p.seq == 1460 for p in retx)
        assert sender.counters.get("partial_acks") == 1

    def test_sack_scoreboard_queues_all_holes(self, sim, stub_host):
        """Holes below the highest SACK are retransmitted together."""
        sender = make_sender(sim, stub_host)
        sender.start()
        stub_host.pop_all()
        mss = sender.mss
        # SACK everything except segments 0 and 2 (holes at 0, 2*mss).
        sacks = [(mss, 2 * mss), (3 * mss, 10 * mss)]
        for _ in range(DUPACK_THRESHOLD):
            sender.handle_packet(ack(0, sacks=sacks))
        retx_seqs = {p.seq for p in stub_host.pop_all() if p.retransmitted}
        assert 0 in retx_seqs
        assert 2 * mss in retx_seqs

    def test_sacked_segments_not_retransmitted(self, sim, stub_host):
        sender = make_sender(sim, stub_host)
        sender.start()
        stub_host.pop_all()
        mss = sender.mss
        sacks = [(mss, 10 * mss)]
        for _ in range(DUPACK_THRESHOLD):
            sender.handle_packet(ack(0, sacks=sacks))
        retx_seqs = {p.seq for p in stub_host.pop_all() if p.retransmitted}
        assert retx_seqs == {0}

    def test_dupacks_without_outstanding_ignored(self, sim, stub_host):
        sender = make_sender(sim, stub_host, total=1460)
        sender.start()
        sender.handle_packet(ack(1460))
        for _ in range(5):
            sender.handle_packet(ack(1460))
        assert not sender.in_recovery


class TestRto:
    def test_rto_fires_and_retransmits(self, sim, stub_host):
        sender = make_sender(sim, stub_host, total=2920)
        sender.start()
        stub_host.pop_all()
        sim.run(until=sender.rtt.rto * 1.5)  # nothing ACKs; RTO must fire
        retx = [p for p in stub_host.outbox if p.retransmitted]
        assert sender.counters.get("rtos") >= 1
        assert any(p.seq == 0 for p in retx)

    def test_rto_collapses_cwnd(self, sim, stub_host):
        sender = make_sender(sim, stub_host)
        sender.start()
        first_rto = sender.rtt.rto
        sim.run(until=first_rto * 1.5)
        assert sender.cca.cwnd == sender.cca.min_cwnd

    def test_rto_backoff_applied(self, sim, stub_host):
        sender = make_sender(sim, stub_host, total=1460)
        sender.start()
        sim.run(until=2.0)
        assert sender.rtt.rto > sender.rtt.initial_rto  # no sample: backed off
        assert sender.counters.get("rtos") >= 2

    def test_ack_rearms_rto(self, sim, stub_host):
        """Dupacks carrying SACKs keep the RTO pushed out."""
        sender = make_sender(sim, stub_host)
        sender.start()
        stub_host.pop_all()
        rto = sender.rtt.rto
        mss = sender.mss

        def dupack():
            sender.handle_packet(ack(0, sacks=[(mss, 2 * mss)]))

        sim.schedule(rto * 0.9, dupack)
        sim.run(until=rto * 1.05)
        assert sender.counters.get("rtos") == 0


class TestLocalDrops:
    def test_local_drop_requeues_without_loss_event(self, sim):
        """A host-qdisc rejection retries on drain; no dupack needed."""
        from tests.tcp.conftest import StubHost

        class DroppyHost(StubHost):
            def __init__(self, sim):
                super().__init__(sim)
                self.drop_next = 0

            def send(self, packet):
                if self.drop_next > 0:
                    self.drop_next -= 1
                    return False
                return super().send(packet)

        from repro.sim.engine import Simulator

        host = DroppyHost(sim)
        sender = make_sender(sim, host, total=14600)
        host.drop_next = 1
        sender.start()
        assert sender.counters.get("local_drops") == 1
        # the drop pauses sending until a drain event; simulate one
        sender._on_qdisc_drain()
        retx = [p for p in host.pop_all() if p.retransmitted]
        assert len(retx) == 1
        assert sender.counters.get("fast_recoveries") == 0
