"""Differential oracle for the one-event-per-hop :class:`Interface`.

``TwoEventInterface`` is the transmit loop as it was before a hop cost
one heap event: ``_start_transmission`` pushes ``_finish_transmission``
one wire time later, which pushes the delivery one propagation delay
after that and starts the next queued packet. The library's
:class:`Interface` pushes the delivery when the transmission starts and
a finish only while something queues. Both run the same traffic on the
same kernel and must be indistinguishable from outside: every arrival
at the next hop and delivery at the end, every drop and dequeue of each
hop's queue, every mark, stamp and counter, at the same instant and in
the same order.

Every duration is a multiple of 2**-21 s, so sums are exact and
arrivals land *exactly* on the instant a transmission finishes — the
case that needs ``placed_at``: whether such an arrival starts at once
or queues depends on which of two same-instant events runs first.

One same-instant order is not decided by the heap key (the design notes
of :mod:`repro.sim.engine` state it); :class:`CensusSimulator` counts
how often a run meets it. Generated traffic that does is discarded
here, and ``tests/test_work_counters.py`` asserts that the four
work-counter shapes never do.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import NetworkConfigError
from repro.net.link import Interface, Link
from repro.net.packet import (
    ETHERNET_OVERHEAD_BYTES,
    TCP_IP_HEADER_BYTES,
    Packet,
)
from repro.net.queue import DropTailQueue, EcnQueue
from repro.sim.trace import CounterSet
from repro.units import BITS_PER_BYTE

from tests.conftest import PushWatch


class TwoEventInterface:
    """The two-event transmit loop, kept verbatim as the reference."""

    def __init__(self, sim, queue, link, name="interface", int_telemetry=False):
        self.sim = sim
        self.queue = queue
        self.link = link
        self.name = name
        self.int_telemetry = int_telemetry
        self._tx_bytes_total = 0.0
        self._busy = False
        self.counters = CounterSet()

    @property
    def busy(self):
        return self._busy

    def enqueue(self, packet):
        if not self._busy:
            self._start_transmission(packet)
            return True
        accepted = self.queue.enqueue(packet)
        if not accepted:
            self.counters["drops"] += 1.0
        return accepted

    def _start_transmission(self, packet):
        self._busy = True
        sim = self.sim
        link = self.link
        self._tx_bytes_total += packet.wire_bytes
        if self.int_telemetry and not packet.is_ack:
            packet.int_qlen_bytes = self.queue.occupancy_bytes
            packet.int_tx_bytes = self._tx_bytes_total
            packet.int_timestamp = sim.now
            packet.int_link_rate_bps = link.rate_bps
        hold = packet.wire_bytes * BITS_PER_BYTE / link.rate_bps
        sim.schedule_at(sim.now + hold, self._finish_transmission, packet)

    def _finish_transmission(self, packet):
        sim = self.sim
        link = self.link
        sink = link.sink
        if sink is None:
            raise NetworkConfigError(f"{link.name}: no sink connected")
        link.tx_packets += 1
        link.tx_bytes += packet.wire_bytes
        if link.loss_rate > 0 and link.loss_rng.random() < link.loss_rate:
            link.counters["corrupted"] += 1.0
        else:
            sim.schedule_at(sim.now + link.delay_s, sink.receive, packet)
        self.counters["tx_packets"] += 1.0
        queue = self.queue
        nxt = queue.dequeue() if queue.occupancy_bytes else None
        if nxt is not None:
            self._start_transmission(nxt)
        else:
            self._busy = False


class CensusSimulator(PushWatch):
    """Counts pushes whose order against a fused delivery the key
    ``(time, placed_at, seq)`` does not decide.

    A delivery pushed ahead with ``placed_at = F`` runs before anything
    else that took its place at instant ``F`` and is due at the same
    time, because its ``seq`` was drawn earlier. The finish event it
    replaces pushed it *at* ``F``: after whatever an earlier event at
    ``F`` pushed. Every such other entry is counted, whichever side of
    the finish it came from. :class:`~tests.conftest.PushWatch` hands
    the census every entry, the deliveries and finishes an
    :class:`Interface` writes in place as well as what enters
    :meth:`Simulator.push`.
    """

    def __init__(self):
        super().__init__()
        self._fused = set()
        self.undecided = 0

    def pushed(self, entry, own_seq):
        time, placed_at = entry[:2]
        if own_seq and placed_at > self.now:
            self._fused.add((time, placed_at))
        elif (time, placed_at) in self._fused:
            self.undecided += 1


TICK = 2.0 ** -21
#: a 1024-byte frame holds the wire for exactly two ticks
RATE_BPS = 1024 * BITS_PER_BYTE / (2 * TICK)
#: wire sizes holding it for one, two and four ticks
WIRE_BYTES = (512, 1024, 2048)
HEADERS = TCP_IP_HEADER_BYTES + ETHERNET_OVERHEAD_BYTES


class Recorder:
    """The end of a path, and the log every hop on it writes to. A
    packet is logged as its number in ``numbers``: its arrival order."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []
        self.numbers = {}

    def receive(self, packet):
        self.log.append((
            "delivered", self.sim.now, self.numbers[packet], packet.ecn_marked,
            packet.int_qlen_bytes, packet.int_tx_bytes, packet.int_timestamp,
        ))

    def note(self, what, hop, packet):
        self.log.append((what, hop, self.sim.now, self.numbers[packet]))


class Recording:
    """A hop's queue that also notes every arrival it turns away and
    every packet it hands to the wire."""

    recorder = None
    hop = None

    def enqueue(self, packet):
        accepted = super().enqueue(packet)
        if not accepted:
            self.recorder.note("dropped", self.hop, packet)
        return accepted

    def dequeue(self):
        packet = super().dequeue()
        if packet is not None:
            self.recorder.note("dequeued", self.hop, packet)
        return packet


class RecordingDropTail(Recording, DropTailQueue):
    pass


class RecordingEcn(Recording, EcnQueue):
    pass


class Forwarder:
    """A sink that notes every arrival and hands it to the next hop."""

    def __init__(self, recorder, hop, interface):
        self.recorder = recorder
        self.hop = hop
        self.interface = interface

    def receive(self, packet):
        self.recorder.note("forwarded", self.hop, packet)
        self.interface.enqueue(packet)


HOP = st.fixed_dictionaries({
    "delay_ticks": st.integers(0, 3),
    "capacity_packets": st.integers(1, 6),
    # ECN step threshold in packets of the largest size, or drop-tail
    "mark_packets": st.none() | st.integers(1, 3),
    "int_telemetry": st.booleans(),
    "loss_rate": st.sampled_from([0.0, 0.0, 0.3]),
})

#: (ticks since the previous arrival, wire size, pushed this many ticks
#: ahead from inside the run). Zero ticks apart makes a burst; a lead of
#: None pushes the arrival before the run starts, so it runs *before*
#: everything else due at its instant, a lead of k makes it run after
#: whatever was pushed up to k ticks earlier.
ARRIVAL = st.tuples(
    st.integers(0, 5),
    st.sampled_from(WIRE_BYTES),
    st.none() | st.integers(0, 4),
)


def build_hop(interface_cls, sim, recorder, index, hop, seed):
    capacity = hop["capacity_packets"] * max(WIRE_BYTES)
    if hop["mark_packets"] is None:
        queue = RecordingDropTail(capacity)
    else:
        threshold = min(hop["mark_packets"], hop["capacity_packets"])
        queue = RecordingEcn(capacity, threshold * max(WIRE_BYTES))
    queue.recorder = recorder
    queue.hop = index
    link = Link(
        sim, RATE_BPS, hop["delay_ticks"] * TICK,
        loss_rate=hop["loss_rate"],
        # one stream per link: a link draws when its frame starts
        # serialising, no longer when it finishes, so links *sharing* a
        # stream would interleave their draws differently
        loss_rng=random.Random(seed + index),
    )
    return interface_cls(
        sim, queue, link, int_telemetry=hop["int_telemetry"]
    )


def replay(interface_cls, hops, arrivals, seed):
    """Run ``arrivals`` through a chain of ``hops``; everything visible."""
    sim = CensusSimulator()
    recorder = Recorder(sim)
    interfaces = [
        build_hop(interface_cls, sim, recorder, index, hop, seed)
        for index, hop in enumerate(hops)
    ]
    for hop, (interface, downstream) in enumerate(
        zip(interfaces, interfaces[1:])
    ):
        interface.link.connect(Forwarder(recorder, hop, downstream))
    interfaces[-1].link.connect(recorder)

    accepted = []

    def arrive(packet):
        accepted.append((sim.now, interfaces[0].enqueue(packet)))

    at = 0
    for number, (wait, wire_bytes, lead) in enumerate(arrivals):
        at += wait
        packet = Packet(
            flow_id=1, src="a", dst="b", payload_bytes=wire_bytes - HEADERS,
            ecn_capable=True,
        )
        recorder.numbers[packet] = number
        assert packet.wire_bytes == wire_bytes
        if lead is None:
            sim.schedule_at(at * TICK, arrive, packet)
        else:
            sim.schedule_at(
                max(at - lead, 0) * TICK,
                sim.schedule_at, at * TICK, arrive, packet,
            )
    ended_at = sim.run()
    return {
        "undecided": sim.undecided,
        "log": recorder.log,
        "accepted": accepted,
        "ended_at": ended_at,
        "busy": [interface.busy for interface in interfaces],
        "counters": [
            (
                dict(interface.counters),
                dict(interface.link.counters),
                dict(interface.queue.counters),
            )
            for interface in interfaces
        ],
    }


def assert_indistinguishable(hops, arrivals, seed):
    outcome = replay(Interface, hops, arrivals, seed)
    assume(outcome["undecided"] == 0)
    assert outcome == replay(TwoEventInterface, hops, arrivals, seed)


@given(hop=HOP, arrivals=st.lists(ARRIVAL, min_size=1, max_size=40),
       seed=st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_one_hop(hop, arrivals, seed):
    assert_indistinguishable([hop], arrivals, seed)


@given(first=HOP, second=HOP,
       arrivals=st.lists(ARRIVAL, min_size=1, max_size=40),
       seed=st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_equal_rate_two_hop_chain(first, second, arrivals, seed):
    # a back-to-back train leaves hop one a wire time apart, so on hop
    # two each frame arrives exactly as its predecessor finishes
    assert_indistinguishable([first, second], arrivals, seed)


#: one hop, three 1024-byte frames (two ticks each). The second arrives
#: at tick 2, pushed before the run: it runs before the first frame's
#: finish and queues. The third arrives at tick 4, pushed at tick 4: it
#: runs after the second frame's finish and starts at once.
PLAIN_HOP = {
    "delay_ticks": 1, "capacity_packets": 6, "mark_packets": None,
    "int_telemetry": True, "loss_rate": 0.0,
}


def starts(outcome):
    """(instant, packet id) of each frame PLAIN_HOP put on its wire: its
    delivery, less the two ticks a 1024-byte frame holds the wire and
    the hop's one tick of delay."""
    return [
        (entry[1] - 3 * TICK, entry[2])
        for entry in outcome["log"]
        if entry[0] == "delivered"
    ]
BOTH_TIES = [(0, 1024, None), (2, 1024, None), (2, 1024, 0)]


def test_an_arrival_at_the_finish_instant_goes_either_way():
    outcome = replay(Interface, [PLAIN_HOP], BOTH_TIES, 0)
    assert outcome == replay(TwoEventInterface, [PLAIN_HOP], BOTH_TIES, 0)
    assert outcome["counters"][0][2] == {"enqueued": 1.0, "dequeued": 1.0}
    assert starts(outcome) == [(0.0, 0), (2 * TICK, 1), (4 * TICK, 2)]


#: the same two ties, decided inside ``enqueue`` now that a packet which
#: finds the wire free starts there. Frame 1 arrives at tick 2, pushed at
#: tick 2: the first frame's finish would have run, so ``enqueue`` does
#: the hop itself. Frame 2 arrives in the same instant and queues behind
#: it, arming the finish with the place that start took. Frame 3 arrives
#: at tick 4, pushed before the run: ahead of that finish, so it queues.
TIE_STARTS_INSIDE_ENQUEUE = [
    (0, 1024, None), (2, 1024, 0), (0, 1024, 0), (2, 1024, None),
]


def test_a_start_inside_enqueue_takes_the_finishs_place():
    arrivals = TIE_STARTS_INSIDE_ENQUEUE
    outcome = replay(Interface, [PLAIN_HOP], arrivals, 0)
    assert outcome["undecided"] == 0
    assert outcome == replay(TwoEventInterface, [PLAIN_HOP], arrivals, 0)
    assert outcome["counters"][0][2] == {"enqueued": 2.0, "dequeued": 2.0}
    assert starts(outcome) == [(2 * n * TICK, n) for n in range(4)]


def test_the_census_sees_the_entries_written_in_place():
    """Two hops and four frames that meet the one order the key leaves
    open once. A census blind to the deliveries an ``Interface`` writes
    in place (one that overrides ``Simulator.push``, say) counts 0 here,
    and would let every generated run above through."""
    hops = [
        {**PLAIN_HOP, "delay_ticks": 3, "capacity_packets": 1,
         "int_telemetry": False},
        {**PLAIN_HOP, "delay_ticks": 2, "capacity_packets": 2,
         "int_telemetry": False},
    ]
    arrivals = [(0, 1024, None), (0, 1024, 1), (5, 512, 2), (4, 1024, 0)]
    assert replay(Interface, hops, arrivals, 0)["undecided"] == 1


@pytest.mark.parametrize("answer", [True, False])
def test_the_oracle_sees_a_tie_decided_wrongly(answer):
    class Guessing(Interface):
        def _finished(self):
            return answer

    expected = replay(TwoEventInterface, [PLAIN_HOP], BOTH_TIES, 0)
    assert replay(Guessing, [PLAIN_HOP], BOTH_TIES, 0) != expected
