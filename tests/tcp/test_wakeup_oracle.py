"""Wake-up oracle: a qdisc drain may skip every sender it cannot help.

``TcpSender._on_qdisc_drain`` returns at once unless the sender's last
``_try_send`` stopped on the host qdisc (a local drop or TSQ). The
oracle is the behaviour that replaced: a sender that retries on *every*
drain. Whole runs must measure bit-equal under both, and the unit tests
pin which stops a drain re-enters.
"""

import pytest

import repro.apps.iperf as iperf
from repro.cc.registry import factory
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import run_once
from repro.net.host import Host
from repro.net.link import Interface, Link
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.tcp.sender import TcpSender
from repro.units import gbps

from tests.tcp.conftest import StubHost

LOSSY_CCAS = (
    "cubic", "reno", "bbr", "bbr2", "vegas", "westwood", "highspeed", "scalable",
)

SCENARIOS = {
    # eight CCAs through a five-packet drop-tail buffer: SACK churn, fast
    # retransmit, RTOs, all behind one paced sender NIC
    "lossy_mix": Scenario(
        name="lossy-mix",
        mtu_bytes=9000,
        buffer_bytes=45_000,
        ecn_threshold_bytes=None,
        start_jitter_s=0.0,
        flows=[FlowSpec(total_bytes=400_000, cca=cca) for cca in LOSSY_CCAS],
    ),
    # the constant-cwnd module ignores TSQ and overruns the host qdisc:
    # local drops, watermark hysteresis, phantom transmit slots
    "no_tsq_baseline": Scenario(
        name="no-tsq-baseline",
        mtu_bytes=1500,
        flows=[FlowSpec(total_bytes=6_000_000, cca="baseline")],
    ),
}


class EveryDrainSender(TcpSender):
    """Retries on every qdisc drain, whatever stopped it last."""

    def _on_qdisc_drain(self) -> None:
        self._qdisc_blocked = True
        super()._on_qdisc_drain()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_is_bit_equal_to_waking_every_sender(name, monkeypatch):
    scenario = SCENARIOS[name]
    shipped = run_once(scenario, seed=3)
    monkeypatch.setattr(iperf, "TcpSender", EveryDrainSender)
    oracle = run_once(scenario, seed=3)
    assert shipped == oracle
    # the scenario exercised the path the oracle is about
    assert shipped.total_retransmissions > 0


class _CountingSender(TcpSender):
    def __init__(self, *args, **kwargs):
        self.try_send_entries = 0
        super().__init__(*args, **kwargs)

    def _try_send(self) -> None:
        self.try_send_entries += 1
        super()._try_send()


class _TinyTsqSender(_CountingSender):
    """Blocks once 2000 B of its flow wait in the host qdisc."""

    tsq_limit_bytes = 2000


class _MillisecondNic(Nic):
    """Lets one packet out per millisecond: a burst queues at once."""

    tx_packet_gap_s = 1e-3


def _entries_on_drain(sender) -> int:
    before = sender.try_send_entries
    sender._on_qdisc_drain()
    return sender.try_send_entries - before


def _ack(sender, ack_seq):
    sender.handle_packet(
        Packet(
            flow_id=sender.flow_id, src="peer", dst="stub", is_ack=True,
            ack_seq=ack_seq, rwnd_bytes=1 << 30,
        )
    )


class TestWhichStopsADrainReenters:
    def test_cwnd_limited_sender_is_not_entered(self, sim, stub_host):
        sender = _CountingSender(
            sim, stub_host, 1, "peer", factory("reno"), total_bytes=10_000_000
        )
        sender.start()
        assert 0 < sender.snd_nxt < sender.total_bytes  # stopped by the initial window
        assert _entries_on_drain(sender) == 0

    def test_app_limited_sender_is_not_entered(self, sim, stub_host):
        sender = _CountingSender(
            sim, stub_host, 1, "peer", factory("reno"), total_bytes=1000
        )
        sender.start()
        assert sender.snd_nxt == 1000  # everything written is out
        assert _entries_on_drain(sender) == 0

    def test_pacing_limited_sender_is_not_entered(self, sim, stub_host):
        sender = _CountingSender(
            sim, stub_host, 1, "peer", factory("bbr"), total_bytes=10_000_000
        )
        sender.start()
        _ack(sender, sender.snd_nxt)  # a rate sample: BBR now paces
        assert sender._pacing_event is not None and sender._pacing_event.alive
        assert _entries_on_drain(sender) == 0

    def test_local_drop_is_entered(self, sim):
        class DroppyHost(StubHost):
            def send(self, packet):
                return False

        sender = _CountingSender(
            sim, DroppyHost(sim), 1, "peer", factory("reno"),
            total_bytes=10_000_000,
        )
        sender.start()
        assert sender.counters.get("local_drops") == 1
        assert _entries_on_drain(sender) == 1

    def test_tsq_block_is_entered(self, sim):
        link = Link(sim, gbps(10), 0.0)
        link.connect(type("Sink", (), {"receive": lambda self, p: None})())
        nic = _MillisecondNic(
            sim, [Interface(sim, DropTailQueue(10_000_000), link)], mtu_bytes=1500
        )
        host = Host(sim, "h")
        host.attach_nic(nic)
        sender = _TinyTsqSender(
            sim, host, 1, "peer", factory("reno"), total_bytes=10_000_000
        )
        sender.start()
        # first segment left at once, two wait in the qdisc: over the limit
        assert nic.flow_backlog[1] >= sender.tsq_limit_bytes
        assert sender.snd_nxt < sender.cca.cwnd  # nothing ACKed: all in flight
        assert _entries_on_drain(sender) == 1

    def test_an_empty_qdisc_is_not_asked_for_the_flows_backlog(self, sim):
        class Asked(dict):
            gets = 0

            def get(self, key, default=None):
                Asked.gets += 1
                return super().get(key, default)

        link = Link(sim, gbps(10), 0.0)
        link.connect(type("Sink", (), {"receive": lambda self, p: None})())
        nic = _MillisecondNic(
            sim, [Interface(sim, DropTailQueue(10_000_000), link)], mtu_bytes=1500
        )
        nic.flow_backlog = Asked()
        host = Host(sim, "h")
        host.attach_nic(nic)
        sender = _TinyTsqSender(
            sim, host, 1, "peer", factory("reno"), total_bytes=10_000_000
        )
        sender.start()
        # four send opportunities: before the first two segments nothing
        # of any flow waits, the third finds one queued, the fourth two.
        # The other two reads are the NIC's, one per packet it queued.
        assert sender.counters.get("segments_sent") == 3
        assert nic.tx_backlog_packets == 2
        assert Asked.gets == 2 + 2
