"""Unit tests for the NIC: bonding, MTU policing, qdisc pacing and TSQ hooks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.apps.iperf as iperf
import repro.net.topology as topology
from repro.cc.registry import factory
from repro.errors import NetworkConfigError
from repro.harness.runner import run_once
from repro.net.host import Host
from repro.net.link import Interface, Link
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.tcp.sender import TcpSender
from repro.units import gbps

from tests.conftest import PushWatch
from tests.tcp.test_wakeup_oracle import SCENARIOS, EveryDrainSender


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def make_iface(sim, sink):
    link = Link(sim, gbps(10), 0.0)
    link.connect(sink)
    return Interface(sim, DropTailQueue(10_000_000), link)


def make_packet(payload=1000, flow=1):
    return Packet(flow_id=flow, src="a", dst="b", payload_bytes=payload)


class TestBonding:
    def test_round_robin_across_interfaces(self, sim):
        sink_a, sink_b = Sink(), Sink()
        nic = Nic([make_iface(sim, sink_a), make_iface(sim, sink_b)], mtu_bytes=9000)
        for _ in range(4):
            nic.send(make_packet())
        sim.run()
        assert len(sink_a.received) == 2
        assert len(sink_b.received) == 2

    def test_bonded_property(self, sim):
        single = Nic([make_iface(sim, Sink())], mtu_bytes=1500)
        double = Nic([make_iface(sim, Sink()), make_iface(sim, Sink())])
        assert not single.bonded
        assert double.bonded

    def test_aggregate_rate(self, sim):
        nic = Nic([make_iface(sim, Sink()), make_iface(sim, Sink())])
        assert nic.aggregate_rate_bps == pytest.approx(2 * gbps(10))


class TestMtuPolicing:
    def test_oversized_packet_rejected(self, sim):
        nic = Nic([make_iface(sim, Sink())], mtu_bytes=1500)
        with pytest.raises(NetworkConfigError):
            nic.send(make_packet(payload=2000))

    def test_mtu_below_ipv4_minimum_rejected(self, sim):
        with pytest.raises(NetworkConfigError):
            Nic([make_iface(sim, Sink())], mtu_bytes=500)

    def test_needs_interface(self):
        with pytest.raises(NetworkConfigError):
            Nic([], mtu_bytes=1500)


class TestPacedTransmitPath:
    def test_gap_requires_sim(self, sim):
        with pytest.raises(NetworkConfigError):
            Nic([make_iface(sim, Sink())], tx_packet_gap_s=1e-6)

    @pytest.mark.parametrize(
        "setting, shown",
        [
            # NaN died later, inside the push of the first drain
            ({"tx_packet_gap_s": float("nan")}, "got nan"),
            # inf parked every drain at t=inf
            ({"tx_packet_gap_s": float("inf")}, "got inf"),
            ({"tx_queue_packets": float("nan")}, "got nan"),
        ],
    )
    def test_nan_and_infinite_settings_are_invalid(self, sim, setting, shown):
        with pytest.raises(NetworkConfigError, match=shown):
            Nic([make_iface(sim, Sink())], sim=sim, **setting)

    def test_gap_limits_packet_rate(self, sim):
        sink = Sink()
        gap = 10e-6
        nic = Nic(
            [make_iface(sim, sink)], mtu_bytes=9000, sim=sim, tx_packet_gap_s=gap
        )
        for _ in range(5):
            nic.send(make_packet(100))
        sim.run()
        assert len(sink.received) == 5
        # last dispatch happens after 4 gaps (first goes immediately)
        assert sim.now >= 4 * gap

    def test_qdisc_overflow_drops_and_counts(self, sim):
        sink = Sink()
        nic = Nic(
            [make_iface(sim, sink)],
            mtu_bytes=9000,
            sim=sim,
            tx_packet_gap_s=1.0,  # effectively frozen qdisc
            tx_queue_packets=2,
        )
        results = [nic.send(make_packet()) for _ in range(5)]
        # first dispatches immediately, two queue, the rest drop
        assert results == [True, True, True, False, False]
        assert nic.counters.get("qdisc_drops") == 2

    def test_flow_backlog_accounting(self, sim):
        nic = Nic(
            [make_iface(sim, Sink())],
            mtu_bytes=9000,
            sim=sim,
            tx_packet_gap_s=1.0,
        )
        p1 = make_packet(1000, flow=7)
        p2 = make_packet(1000, flow=7)
        nic.send(p1)  # dispatched immediately (queue empty)
        nic.send(p2)  # queued
        assert nic.flow_backlog_bytes(7) == p2.size_bytes
        assert nic.flow_backlog_bytes(99) == 0

    def test_drain_listener_called(self, sim):
        calls = []
        nic = Nic(
            [make_iface(sim, Sink())],
            mtu_bytes=9000,
            sim=sim,
            tx_packet_gap_s=1e-6,
        )
        nic.add_drain_listener(lambda: calls.append(sim.now))
        nic.send(make_packet())  # leaves at once, nobody waiting
        assert calls == []
        nic.drain_waiters += 1  # a listener asks for the next drain
        nic.send(make_packet())
        sim.run()
        assert calls == [pytest.approx(1e-6)]
        assert nic.drain_waiters == 0

    def test_listeners_are_skipped_while_nobody_waits(self, sim):
        calls = []
        nic = Nic(
            [make_iface(sim, Sink())],
            mtu_bytes=9000,
            sim=sim,
            tx_packet_gap_s=1e-6,
        )
        nic.add_drain_listener(lambda: calls.append("first"))
        nic.add_drain_listener(lambda: calls.append("second"))
        for _ in range(4):
            nic.send(make_packet())
        sim.run(until=2.5e-6)  # three of the four drains
        assert calls == []
        nic.drain_waiters += 2
        sim.run()
        # one round for both requests, in registration order
        assert calls == ["first", "second"]

    def test_unpaced_path_bypasses_qdisc(self, sim):
        sink = Sink()
        nic = Nic([make_iface(sim, sink)], mtu_bytes=9000)
        assert nic.send(make_packet())
        assert nic.tx_backlog_packets == 0
        sim.run()
        assert len(sink.received) == 1


def live_entries(sim):
    """``(time, callback)`` of every live heap entry, whichever its
    heap: a plain push on the packet heap, or an :class:`Event` a
    cancellable one made on the event heap (the sentinels, due at
    ``inf``, are no entries)."""
    for time, _, _, callback, _arg in sim._queue:
        if time < float("inf"):
            yield time, callback
    for time, _, _, event in sim._events:
        if time < float("inf") and not event.cancelled:
            yield time, event.callback


class _Wire:
    """Stands in for an egress interface: notes when each packet leaves."""

    def __init__(self, sim):
        self.sim = sim
        self.departures = []

    def enqueue(self, packet):
        self.departures.append(self.sim.now)
        return True


class TestDemandDrivenPacing:
    """The paced NIC keeps a ``_drain`` event only while a packet waits,
    yet emits packets at the instants of a NIC that ticks every gap."""

    GAP = 2.5e-6

    #: bursts of 1-4 packets, 0-8 µs apart: inside the gap, on a tick,
    #: and long after the NIC went idle
    @given(
        pattern=st.lists(
            st.tuples(st.integers(0, 8), st.integers(1, 4)),
            min_size=1, max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_departures_match_an_always_ticking_nic(self, pattern):
        sim = Simulator()
        wire = _Wire(sim)
        nic = Nic([wire], mtu_bytes=9000, sim=sim, tx_packet_gap_s=self.GAP)

        def drain_entries():
            return sum(
                1 for _, callback in live_entries(sim) if callback == nic._drain
            )

        def burst(count):
            # idle means absent from the heap, not ticking into nothing
            assert drain_entries() == (1 if nic.tx_backlog_packets else 0)
            for _ in range(count):
                assert nic.send(make_packet(100))

        send_times = []
        at = 0.0
        for wait_us, count in pattern:
            at += wait_us * 1e-6
            sim.schedule_at(at, burst, count)
            send_times += [at] * count
        sim.run()

        # the reference: a tick every gap from the first packet on, each
        # packet leaving at the first tick that finds it at the head
        expected = []
        for sent in send_times:
            tick = expected[-1] + self.GAP if expected else sent
            expected.append(max(sent, tick))
        assert wire.departures == expected
        assert all(
            later >= earlier + self.GAP
            for earlier, later in zip(expected, expected[1:])
        )
        assert drain_entries() == 0 and nic.tx_backlog_packets == 0
        assert sim.now == expected[-1]  # no tick after the last packet


GAP = TestDemandDrivenPacing.GAP


class QueuedNic(Nic):
    """The paced ``send`` as it was while every packet went through the
    qdisc — ``_txq``, ``flow_backlog`` and a ``_drain`` frame — even one
    that found the NIC idle. Kept as the reference."""

    def send(self, packet):
        if packet.size_bytes > self.mtu_bytes:
            raise NetworkConfigError("packet exceeds MTU")
        self.tx_packets += 1
        self.tx_bytes += packet.size_bytes
        if len(self._txq) >= self.tx_queue_packets:
            self._phantom_slots += 1
            self._counters["tx_drops"] += 1.0
            self._counters["qdisc_drops"] += 1.0
            return False
        self._txq.append(packet)
        backlog = self.flow_backlog
        backlog[packet.flow_id] = backlog.get(packet.flow_id, 0) + packet.size_bytes
        if not self._draining:
            self._draining = True
            if self.sim.now >= self._next_tx_time:
                self._drain()
            else:
                self.sim.push(
                    self._next_tx_time, self.sim.now, None, self._drain, None
                )
        return True


class _PickyWire(_Wire):
    """Also notes which packet left, and rejects every third one."""

    def enqueue(self, packet):
        self.departures.append((self.sim.now, packet.packet_id))
        return len(self.departures) % 3 != 0


class _PushLog(PushWatch):
    """Notes every push: when it was made, for when, and of what —
    cancellable or not, through :meth:`Simulator.push` or, as a drain
    is, written in place."""

    def __init__(self):
        super().__init__()
        self.pushes = []

    def pushed(self, entry, own_seq):
        time, callback = entry[0], entry[3]
        of = callback.callback if len(entry) == 4 else callback
        self.pushes.append((self.now, time, of.__name__))


def replay_nic(nic_cls, pattern, reentries):
    """Bursts from outside and, from inside the drain listener, the
    sends of ``reentries``; everything visible from outside the NIC."""
    sim = _PushLog()
    wires = [_PickyWire(sim), _PickyWire(sim)]
    nic = nic_cls(
        wires, mtu_bytes=9000, sim=sim, tx_packet_gap_s=GAP,
        tx_queue_packets=3,
    )
    ids = iter(range(10_000))
    accepted = []
    seen = []
    pending = list(reentries)

    def send(flow):
        packet = Packet(
            flow_id=flow, src="a", dst="b", payload_bytes=100 * flow,
            packet_id=next(ids),
        )
        accepted.append((sim.now, packet.packet_id, nic.send(packet)))
        # what TCP Small Queues reads after every segment
        seen.append(("after send", sim.now, dict(nic.flow_backlog)))

    def listener():
        seen.append(
            ("woken", sim.now, dict(nic.flow_backlog), nic.tx_backlog_packets)
        )
        if pending:
            count, ask_again = pending.pop(0)
            for _ in range(count):
                send(3)
            if ask_again:
                nic.drain_waiters += 1

    nic.add_drain_listener(listener)

    def burst(count, flow, wants_wakeup):
        if wants_wakeup:
            nic.drain_waiters += 1
        for _ in range(count):
            send(flow)

    at = 0.0
    for wait_us, count, flow, wants_wakeup in pattern:
        at += wait_us * 1e-6
        sim.schedule_at(at, burst, count, flow, wants_wakeup)
    ended_at = sim.run()
    return {
        "departures": [wire.departures for wire in wires],
        "accepted": accepted,
        "seen": seen,
        "counters": dict(nic.counters),
        "pushes": sim.pushes,
        "ended_at": ended_at,
        "left over": (
            nic.tx_backlog_packets, nic.flow_backlog, nic.drain_waiters,
            nic._draining, nic._next_tx_time, nic._phantom_slots,
        ),
    }


class TestAnIdleNicQueuesNothing:
    """A packet that finds the paced NIC idle, its gap elapsed, leaves
    from inside ``send`` without touching the qdisc — and nothing seen
    from outside tells that NIC from one that queues every packet."""

    #: (µs since the last burst, packets, flow, asks for a wake-up) and,
    #: for the listener's successive wake-ups, (packets it sends from
    #: inside the wake-up, whether it asks to be woken again). Five
    #: packets at once overflow the three-packet qdisc: phantom slots.
    @given(
        pattern=st.lists(
            st.tuples(
                st.integers(0, 8), st.integers(1, 5), st.integers(1, 2),
                st.booleans(),
            ),
            min_size=1, max_size=25,
        ),
        reentries=st.lists(
            st.tuples(st.integers(0, 2), st.booleans()), max_size=12
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_indistinguishable_from_a_nic_that_queues_every_packet(
        self, pattern, reentries
    ):
        assert replay_nic(Nic, pattern, reentries) == replay_nic(
            QueuedNic, pattern, reentries
        )

    def make_nic(self, sim, nic_cls=Nic):
        wire = _Wire(sim)
        nic = nic_cls([wire], mtu_bytes=9000, sim=sim, tx_packet_gap_s=GAP)
        return nic, wire

    def test_a_woken_listener_sees_no_backlog_of_the_departing_packet(
        self, sim
    ):
        nic, wire = self.make_nic(sim)
        seen = []
        nic.add_drain_listener(
            lambda: seen.append((dict(nic.flow_backlog), list(wire.departures)))
        )
        nic.drain_waiters += 1
        nic.send(make_packet(flow=7))
        # woken after the packet left, with nothing of flow 7 waiting
        assert seen == [({}, [0.0])]
        assert nic.drain_waiters == 0

    @pytest.mark.parametrize("nic_cls", [Nic, QueuedNic])
    def test_a_send_from_inside_the_wake_up_queues_behind_it(
        self, sim, nic_cls
    ):
        nic, wire = self.make_nic(sim, nic_cls)
        second = make_packet(flow=7)

        def listener():
            # the NIC is mid-dispatch: this one waits its gap
            assert nic.send(second)
            assert wire.departures == [0.0]
            assert nic.flow_backlog == {7: second.size_bytes}

        nic.add_drain_listener(listener)
        nic.drain_waiters += 1
        nic.send(make_packet(flow=7))
        drains = [
            time for time, callback in live_entries(sim)
            if callback == nic._drain
        ]
        assert drains == [GAP]  # exactly one, one gap later
        sim.run()
        assert wire.departures == [0.0, GAP]
        assert nic.flow_backlog == {} and sim.pending_events == 0

    def test_a_pending_phantom_slot_takes_the_queued_path(self, sim):
        nic, wire = self.make_nic(sim)
        nic._phantom_slots = 1  # work the qdisc discarded, not yet paid for
        nic.send(make_packet())
        assert wire.departures == [] and nic.tx_backlog_packets == 1
        sim.run()
        assert wire.departures == [GAP]  # the slot was burnt first

    def test_a_running_drain_takes_the_queued_path(self, sim):
        nic, wire = self.make_nic(sim)
        nic.send(make_packet())
        nic._draining = True  # as a re-entrant send finds it
        sim.run(until=2 * GAP)
        nic.send(make_packet())
        assert wire.departures == [0.0] and nic.tx_backlog_packets == 1

    def test_an_unelapsed_gap_takes_the_queued_path(self, sim):
        nic, wire = self.make_nic(sim)
        nic.send(make_packet())
        sim.run(until=GAP / 2)
        nic.send(make_packet(flow=7))
        assert wire.departures == [0.0] and nic.tx_backlog_packets == 1
        assert nic.flow_backlog_bytes(7) > 0
        sim.run()
        assert wire.departures == [0.0, GAP]

    def test_an_idle_nic_uses_neither_the_qdisc_nor_a_drain(self, sim):
        nic, wire = self.make_nic(sim)
        nic._txq = nic.flow_backlog = None  # any use of either raises
        for tick in range(3):
            sim.schedule_at(tick * GAP, nic.send, make_packet())
        sim.run()
        assert wire.departures == [0.0, GAP, 2 * GAP]
        assert sim.events_executed == 3  # and no ``_drain`` was pushed


def test_tsq_blocked_sender_is_woken_by_each_drain(sim):
    # no ACK ever arrives: past the TSQ limit, only the NIC's drains can
    # carry the rest of the initial window out
    nic = Nic(
        [make_iface(sim, Sink())], mtu_bytes=1500, sim=sim, tx_packet_gap_s=1e-5,
    )
    sender = TcpSender(
        sim, Host(sim, "h", nic), 1, "peer", factory("reno"),
        total_bytes=10_000_000, tsq_limit_bytes=2000,
    )
    sender.start()
    assert sender.counters.get("segments_sent") == 3  # one out, two queued
    assert nic.drain_waiters == 1
    sim.run(until=1e-3)  # well before the first RTO
    assert sender.counters.get("segments_sent") == 10
    assert sender.bytes_in_flight == sender.cca.cwnd
    assert nic.drain_waiters == 0  # the window stopped it, not the qdisc


class EveryDrainNic(Nic):
    """Runs its drain listeners on every departure, whoever asked."""

    def send(self, packet):
        # for a packet that leaves from inside ``send``; one that queues
        # is woken for by the ``_drain`` that takes it
        self.drain_waiters += 1
        return super().send(packet)

    def _drain(self, _=None):
        self.drain_waiters += 1
        super()._drain()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_is_bit_equal_to_waking_every_listener_on_every_drain(
    name, monkeypatch
):
    # the oracle for skipping the listener loop while nobody waits: a
    # NIC that never skips it, under senders that retry on every call
    shipped = run_once(SCENARIOS[name], seed=3)
    monkeypatch.setattr(topology, "Nic", EveryDrainNic)
    monkeypatch.setattr(iperf, "TcpSender", EveryDrainSender)
    assert run_once(SCENARIOS[name], seed=3) == shipped
