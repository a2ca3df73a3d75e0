"""Differential oracles for the two header-prediction fast paths.

``TcpReceiver.handle_packet`` takes the next in-order segment straight
to ``rcv_nxt`` when nothing is buffered, and ``TcpSender`` walks only the
segments a SACK block newly covers. The oracles are what those replaced: a
receiver that sends *every* segment through its range set, and a sender
that rescans *every* outstanding segment on each ACK that SACKs new
bytes. Each runs in lockstep with the shipped class, fed the same
packets at the same virtual times, and must agree after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.registry import factory
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.tcp.receiver import DEFAULT_DELACK_TIMEOUT, TcpReceiver
from repro.tcp.sender import TcpSender

from tests.tcp.conftest import StubHost

MSS = 1000


# -- receiver ---------------------------------------------------------


class RangeSetOnlyReceiver(TcpReceiver):
    """The receiver step before header prediction: every segment goes
    through ``contains``/``add``/``first_missing_after``/``trim_below``."""

    def handle_packet(self, packet):
        self.segments += 1
        out_of_order = packet.seq > self.rcv_nxt
        had_gap = bool(self.received)
        duplicate = packet.end_seq <= self.rcv_nxt or self.received.contains(
            packet.seq, packet.end_seq
        )
        if duplicate:
            self.counters["duplicate_segments"] += 1
        else:
            self.bytes_received += self.received.add(packet.seq, packet.end_seq)
        self.rcv_nxt = self.received.first_missing_after(self.rcv_nxt)
        self.received.trim_below(self.rcv_nxt)

        ce_changed = packet.ecn_marked != self._ce_state
        self._ce_state = packet.ecn_marked
        if packet.ecn_marked:
            self.counters["ce_marks"] += 1
            self._marked_bytes_pending += packet.payload_bytes
        self._pending_echo_time = packet.sent_time
        self._unacked_segments += 1
        finished = self.rcv_nxt >= self.expected_bytes
        if (
            out_of_order or duplicate or had_gap or ce_changed or finished
            or self._unacked_segments >= self.delack_segments
        ):
            self._send_ack()
        elif not self._delack_timer.pending:
            self._delack_timer.start(DEFAULT_DELACK_TIMEOUT)
        if finished and self.completed_at is None:
            self.completed_at = self.sim.now


ACK_FIELDS = (
    "ack_seq", "sacks", "rwnd_bytes", "echo_time", "ecn_echo",
    "ecn_marked_bytes", "sent_time",
)


def ack_fields(packets):
    return [tuple(getattr(p, name) for name in ACK_FIELDS) for p in packets]


#: one arrival: which bytes, CE mark, and how long after the last one
#: (the longest gap outlasts the delayed-ACK timer)
ARRIVALS = st.lists(
    st.tuples(
        st.one_of(
            # a whole segment of the transfer, the short last one included
            st.integers(0, 7).map(lambda i: (i * MSS, min(MSS, 7400 - i * MSS))),
            # anything at all: straddles a hole, a boundary, or the end
            st.tuples(st.integers(0, 7000), st.integers(1, 1500)),
        ),
        st.booleans(),
        st.sampled_from([0.0, 1e-5, 2e-4, 6e-4]),
    ),
    max_size=40,
)


@given(
    arrivals=ARRIVALS,
    in_order_prefix=st.integers(0, 8),
    delack_segments=st.integers(1, 3),
)
@settings(max_examples=300, deadline=None)
def test_receiver_agrees_with_the_range_set_only_step(
    arrivals, in_order_prefix, delack_segments
):
    sim = Simulator()
    ends = []
    for cls in (TcpReceiver, RangeSetOnlyReceiver):
        host = StubHost(sim, name=cls.__name__)
        # the shipped class's constant, overridden on both
        cls = type(cls.__name__, (cls,), {"delack_segments": delack_segments})
        ends.append((host, cls(
            sim, host, flow_id=1, peer="sender", expected_bytes=7400,
        )))
    # hypothesis rarely draws a long in-order run by itself, and that
    # run is the fast path
    prefix = [
        ((i * MSS, min(MSS, 7400 - i * MSS)), False, 1e-5)
        for i in range(in_order_prefix)
    ]
    for (seq, length), marked, gap in prefix + arrivals:
        sim.run(until=sim.now + gap)
        for _host, receiver in ends:
            receiver.handle_packet(Packet(
                flow_id=1, src="sender", dst="stub", seq=seq,
                payload_bytes=length, ecn_marked=marked,
                sent_time=sim.now - 1e-6,
            ))
        (shipped_host, shipped), (oracle_host, oracle) = ends
        assert ack_fields(shipped_host.outbox) == ack_fields(oracle_host.outbox)
        assert (
            shipped.rcv_nxt, shipped.bytes_received, shipped.completed_at,
            list(shipped.received), shipped.counters,
        ) == (
            oracle.rcv_nxt, oracle.bytes_received, oracle.completed_at,
            list(oracle.received), oracle.counters,
        )
    sim.run()  # whatever the delayed-ACK timers still owe
    assert ack_fields(ends[0][0].outbox) == ack_fields(ends[1][0].outbox)


# -- sender -----------------------------------------------------------


class ScanAllSender(TcpSender):
    """The scoreboard before the walk: an ACK that SACKs new bytes tests
    every outstanding segment against the merged ranges. (Fed ``()`` it
    adds nothing and scans nothing, as every ACK without blocks feeds
    it.)"""

    def _apply_sacks(self, sacks):
        newly = 0
        for start, end in sacks:
            if end <= start or end <= self.snd_una:
                continue
            self._highest_sacked = max(self._highest_sacked, end)
            newly += self._sacked.add(max(start, self.snd_una), end)
        if newly:
            for seg in self._segments.values():
                if not seg.sacked and self._sacked.contains(seg.seq, seg.end_seq):
                    seg.sacked = True
                    if seg.in_flight:
                        seg.in_flight = False
                        self._in_flight -= seg.length


def scoreboard(sender):
    return {
        "snd_una": sender.snd_una,
        "snd_nxt": sender.snd_nxt,
        "in_flight": sender._in_flight,
        "highest_sacked": sender._highest_sacked,
        "sacked_ranges": list(sender._sacked),
        "segments": [
            (seg.seq, seg.end_seq, seg.sacked, seg.in_flight, seg.retransmitted)
            for seg in sender._segments.values()
        ],
        "retx_queue": list(sender._retx_queue),
        "recovery_point": sender._recovery_point,
        "cwnd": sender.cca.cwnd,
        "completed_at": sender.completed_at,
        "counters": dict(sender.counters),
    }


def sent(packets):
    return [(p.seq, p.payload_bytes, p.retransmitted, p.sent_time) for p in packets]


def run_in_lockstep(steps, cca):
    """Drive both senders through ``steps`` of a lossy, reordering
    network; returns the ACKs they were handed as ``(ack, snd_una)``."""
    sim = Simulator()
    total = 40 * MSS + 300  # a short last segment
    senders = []
    for cls in (TcpSender, ScanAllSender):
        host = StubHost(sim, name=cls.__name__, mtu_bytes=MSS + 40)
        senders.append((host, cls(
            sim, host, flow_id=1, dst="peer", cca_factory=factory(cca),
            total_bytes=total,
        )))
    (shipped_host, shipped), (oracle_host, oracle) = senders
    # a real receiver writes the ACKs, so SACK blocks are what a sender
    # meets in a run: unions of whole segments, the highest three
    peer_host = StubHost(sim, name="peer")
    peer = TcpReceiver(sim, peer_host, flow_id=1, peer="sender", expected_bytes=total)
    wire, held, acks, handed = [], [], [], []

    def settle():
        """Move what the endpoints sent onto the wire; compare."""
        out = shipped_host.pop_all()
        assert sent(out) == sent(oracle_host.pop_all())
        wire.extend(out)
        acks.extend(peer_host.pop_all())
        assert scoreboard(shipped) == scoreboard(oracle)

    def to_senders(ack):
        handed.append((ack, shipped.snd_una))
        for _host, sender in senders:
            sender.handle_packet(ack)

    for _host, sender in senders:
        sender.start()
    settle()
    for step, index in steps:
        if step == "deliver" and wire:
            peer.handle_packet(wire.pop(0))
        elif step == "drop" and wire:
            wire.pop(0)
        elif step == "hold" and wire:
            held.append(wire.pop(0))
        elif step == "release" and held:
            peer.handle_packet(held.pop(index % len(held)))
        elif step == "ack" and acks:
            to_senders(acks.pop(0))
        elif step == "late_ack" and acks:
            # overtaken on the way back: by the time it arrives its
            # blocks may lie below snd_una
            to_senders(acks.pop(index % len(acks)))
        elif step == "old_ack" and handed:
            # a duplicate of an ACK already processed: stale by now
            to_senders(handed[index % len(handed)][0])
        elif step == "tick":
            # up to 4 ms: past the delayed-ACK timer and the minimum RTO
            sim.run(until=sim.now + (index + 1) * 5e-4)
        settle()
    return handed


def one_round(fates, release, ack_steps, old_acks, tick):
    """Steps for one round trip: a fate for each segment on the wire,
    then the ACKs on their way back, then (maybe) silence."""
    return (
        [(fate, 0) for fate in fates]
        + [("release", index) for index in release]
        + ack_steps
        + [("old_ack", index) for index in old_acks]
        + [("tick", tick)] * (tick is not None)
    )


#: what the network between the sender and its peer does, a round trip
#: at a time; a step that finds nothing to act on does nothing
STEPS = st.lists(
    st.builds(
        one_round,
        fates=st.lists(
            st.sampled_from(["deliver", "deliver", "deliver", "drop", "hold"]),
            min_size=1, max_size=14,
        ),
        release=st.lists(st.integers(0, 7), max_size=3),
        ack_steps=st.lists(
            st.tuples(
                st.sampled_from(["ack", "ack", "ack", "late_ack"]),
                st.integers(0, 7),
            ),
            max_size=14,
        ),
        old_acks=st.lists(st.integers(0, 40), max_size=2),
        tick=st.one_of(st.none(), st.integers(0, 7)),
    ),
    max_size=10,
).map(lambda rounds: [step for steps in rounds for step in steps])


@given(steps=STEPS, cca=st.sampled_from(["reno", "cubic", "bbr"]))
@settings(max_examples=200, deadline=None)
def test_sender_agrees_with_the_all_segments_scan(steps, cca):
    run_in_lockstep(steps, cca)


def test_a_loss_burst_reaches_three_blocks_and_stale_ones():
    # two segments arrive, then every other one of the window is lost;
    # the ACKs come back, the line goes quiet until the retransmissions
    # get through, and two early ACKs turn up again at the end
    steps = (
        [("deliver", 0), ("deliver", 0), ("ack", 0)]
        + [("drop", 0), ("deliver", 0)] * 4
        + [("ack", 0)] * 6
        + [("deliver", 0)] * 4 + [("ack", 0)] * 6
        + [("tick", 7), ("deliver", 0), ("ack", 0)] * 3
        + [("old_ack", 2), ("old_ack", 4)]
    )
    handed = run_in_lockstep(steps, "reno")
    # the scripted run is one where the oracle has something to say
    assert {len(ack.sacks) for ack, _ in handed} == {0, 1, 2, 3}
    assert any(
        end <= snd_una for ack, snd_una in handed for _start, end in ack.sacks
    )
