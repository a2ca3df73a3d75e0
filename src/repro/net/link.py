"""Links and egress interfaces.

A :class:`Link` describes a unidirectional pipe: a fixed bit rate, a
propagation delay, an optional corruption rate, the receiving end and
the wire's counters. An :class:`Interface` couples a queue to a link and
implements the store-and-forward loop: if the link is idle a packet
starts serializing immediately, otherwise it waits in the queue; a
packet reaches the sink one wire time plus one propagation delay after
it started, and the next packet (if any) starts when the wire time is
over.

This is the classic ns-2 ``Queue + DelayLink`` decomposition and is the
only place in the library where virtual time is consumed by data motion.
Each packet costs each hop one event, its delivery, and the whole hop is
done in one Python frame. The transmit side is demand-driven like the
paced NIC: the end of serialisation is a field,
:attr:`Interface.busy_until`, and an event
(:meth:`Interface._start_next`) only while a packet waits in the queue
or when the frame was lost. Nothing ever cancels a delivery or a finish,
so each is an entry on the simulator's packet heap and no
:class:`~repro.sim.engine.Event`, written in place: the statements of
:meth:`~repro.sim.engine.Simulator.push` (its two NaN-safe checks, one
``seq`` drawn, one ``heappush``) in the frame that pushes, as the design
notes of :mod:`repro.sim.engine` state. An entry carries the one
argument its callback is entered with: the packet for a delivery,
``None`` for a finish (``_start_next`` ignores it).
The order of same-instant events is that of a link which always pushes a
finish event and lets it push the delivery: the delivery is *placed* at
the finish instant, a finish pushed late takes the place it would have
had, and an arrival at exactly ``busy_until`` asks whether the finish
would have run yet (see the same design notes).

A packet that waits for nothing is queued nowhere: one that finds the
wire free starts inside :meth:`Interface.enqueue`, which is the only
thing a caller (a switch, a NIC, a test's stand-in wire) ever calls;
:meth:`Interface._start_next` makes the same statements for a packet it
takes out of the queue. Whether the wire is free is decided as before —
``now > busy_until``, or :meth:`Interface._finished` on the tie — and
the start reads the same clock, does the same float operations in the
same order, draws the same loss variate and makes the same one push
whichever frame it runs in, so departure times, heap keys and tie order
are those of the two-frame hop. The only statement the free-wire copy
lacks is arming a finish for a packet left in the queue: a free wire has
none. ``tests/net/test_interface_oracle.py`` runs both paths in lockstep
with the two-event interface.
"""

from __future__ import annotations

from heapq import heappush
from typing import Optional, Protocol

from repro.errors import NetworkConfigError
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.trace import CounterSet, Counted
from repro.units import BITS_PER_BYTE


class PacketSink(Protocol):
    """Anything that can receive packets from a link."""

    def receive(self, packet: Packet) -> None:
        """Handle an arriving packet."""
        ...  # pragma: no cover - protocol definition


class Link(Counted):
    """Unidirectional link: serialization at ``rate_bps`` + fixed delay.

    ``loss_rate`` models random corruption (bit errors, flaky optics):
    each packet is independently dropped with that probability. The draw
    is made when serialization starts and the frame holds the wire all
    the same. Deterministic given ``loss_rng``; used by robustness
    tests and failure-injection experiments.

    The link holds no behaviour of its own: the :class:`Interface` that
    feeds it reads these attributes on every packet (so a test may make
    a built link lossy) and keeps its counters.
    """

    COUNTER_FIELDS = ("tx_packets", "tx_bytes")

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        delay_s: float,
        name: str = "link",
        loss_rate: float = 0.0,
        loss_rng=None,
    ):
        # written so that NaN fails too. The rate is finite so that every
        # frame holds the wire for some time: an interface tells a
        # transmission's start from its finish by their instants
        if not 0 < rate_bps < float("inf"):
            raise NetworkConfigError(
                f"link rate must be finite and > 0, got {rate_bps}"
            )
        if not 0 <= delay_s < float("inf"):
            raise NetworkConfigError(
                f"link delay must be finite and >= 0, got {delay_s}"
            )
        if not 0.0 <= loss_rate < 1.0:
            raise NetworkConfigError(
                f"loss rate must be in [0, 1), got {loss_rate}"
            )
        if loss_rate > 0 and loss_rng is None:
            raise NetworkConfigError("a lossy link needs an RNG stream")
        self.sim = sim
        self.rate_bps = rate_bps
        self.delay_s = delay_s
        self.name = name
        self.loss_rate = loss_rate
        self.loss_rng = loss_rng
        self.sink: Optional[PacketSink] = None
        self._counters = CounterSet()
        self.tx_packets = 0
        self.tx_bytes = 0

    def connect(self, sink: PacketSink) -> None:
        """Attach the receiving end."""
        self.sink = sink


class Interface(Counted):
    """An egress interface: queue + link + transmit loop.

    A packet holds the wire for exactly its wire time: the per-packet
    processing floor that keeps small-MTU hosts below line rate is the
    host NIC's ``tx_packet_gap_s``, not the interface's. The interface
    counts the frames it starts (``tx_packets``) and the arrivals its
    queue turned away (``drops``), and keeps the link's counters: its
    ``tx_packets`` and ``tx_bytes`` fields and, by name, ``corrupted``.
    """

    COUNTER_FIELDS = ("tx_packets",)

    def __init__(
        self,
        sim: Simulator,
        queue: DropTailQueue,
        link: Link,
        name: str = "interface",
        int_telemetry: bool = False,
    ):
        self.sim = sim
        self.queue = queue
        self.link = link
        self.name = name
        #: stamp INT metadata (queue length, cumulative tx bytes, link
        #: rate, timestamp) on departing packets — HPCC's switch support
        self.int_telemetry = int_telemetry
        #: wire bytes started so far; kept only on a stamping interface,
        #: the only one that reads it
        self._tx_bytes_total = 0.0
        #: the instant the transmission in flight finishes
        self.busy_until = float("-inf")
        #: that finish's place in line among the events due at
        #: ``busy_until``: the instant the transmission started and the
        #: sequence number its start drew
        self._tx_start = 0.0
        self._tx_seq = 0
        #: the finish is on the heap as a ``_start_next`` event
        self._next_armed = False
        self._counters = CounterSet()
        self.tx_packets = 0

    @property
    def busy(self) -> bool:
        """Whether a packet is currently being serialized."""
        now = self.sim.now
        return now < self.busy_until or (
            now == self.busy_until and not self._finished()
        )

    def _finished(self) -> bool:
        """At exactly ``busy_until``: has the finish had its turn?

        Armed, it is on the heap and has not. Otherwise it is an event
        nobody pushed, and it would have run by now if its place in line
        is no later than that of the event running now.
        """
        if self._next_armed:
            return False
        current = self.sim.current
        return current is None or (
            (self._tx_start, self._tx_seq) <= (current[1], current[2])
        )

    def enqueue(self, packet: Packet) -> bool:
        """Submit a packet for transmission. Returns False if dropped."""
        sim = self.sim
        now = sim.now
        if now > self.busy_until or (
            now == self.busy_until and self._finished()
        ):
            # the transmission _start_next makes, in this frame: the whole
            # hop of a packet that found the wire free. A free wire has an
            # empty queue (had anything waited, the finish was armed and
            # started it), so nothing is left behind to arm a finish for.
            link = self.link
            sink = link.sink
            if sink is None:
                raise NetworkConfigError(f"{link.name}: no sink connected")
            wire_bytes = packet.wire_bytes
            if self.int_telemetry:
                self._tx_bytes_total += wire_bytes
                if not packet.is_ack:
                    packet.int_qlen_bytes = self.queue.occupancy_bytes
                    packet.int_tx_bytes = self._tx_bytes_total
                    packet.int_timestamp = now
                    packet.int_link_rate_bps = link.rate_bps
            finish = now + wire_bytes * BITS_PER_BYTE / link.rate_bps
            self.busy_until = finish
            self._tx_start = now
            link.tx_packets += 1
            link.tx_bytes += wire_bytes
            self.tx_packets += 1
            if link.loss_rate > 0 and link.loss_rng.random() < link.loss_rate:
                link.counters["corrupted"] += 1.0
                self._next_armed = True
                if not finish >= now or not now <= finish:
                    raise sim.refusal(finish, now)
                self._tx_seq = seq = sim._seq
                sim._seq = seq + 1
                heappush(sim._queue, (finish, now, seq, self._start_next, None))
                return True
            due = finish + link.delay_s
            if not due >= now or not finish <= due:
                raise sim.refusal(due, finish)
            self._tx_seq = seq = sim._seq
            sim._seq = seq + 1
            heappush(sim._queue, (due, finish, seq, sink.receive, packet))
            return True
        accepted = self.queue.enqueue(packet)
        if not accepted:
            self._counters["drops"] += 1.0
        elif not self._next_armed:
            self._next_armed = True
            # the finish takes the place its start reserved
            due, placed_at = self.busy_until, self._tx_start
            if not due >= now or not placed_at <= due:
                raise sim.refusal(due, placed_at)
            sim._seq += 1
            heappush(sim._queue, (due, placed_at, self._tx_seq, self._start_next, None))
        return accepted

    def _start_next(self, _: object = None) -> None:
        """A transmission finished with something waiting behind it (or
        with its frame lost): the next queued packet, if any, holds the
        wire for its wire time and, unless a bit error kills it, reaches
        the sink one propagation delay after that. The argument is the
        ``None`` a packet-heap entry carries."""
        self._next_armed = False
        queue = self.queue
        if not queue.occupancy_bytes:  # an empty queue is not asked
            return
        packet = queue.dequeue()
        if packet is None:
            return
        sim = self.sim
        link = self.link
        sink = link.sink
        if sink is None:
            raise NetworkConfigError(f"{link.name}: no sink connected")
        now = sim.now
        wire_bytes = packet.wire_bytes
        if self.int_telemetry:
            self._tx_bytes_total += wire_bytes
            if not packet.is_ack:
                packet.int_qlen_bytes = queue.occupancy_bytes
                packet.int_tx_bytes = self._tx_bytes_total
                packet.int_timestamp = now
                packet.int_link_rate_bps = link.rate_bps
        finish = now + wire_bytes * BITS_PER_BYTE / link.rate_bps
        self.busy_until = finish
        self._tx_start = now
        link.tx_packets += 1
        link.tx_bytes += wire_bytes
        self.tx_packets += 1
        if link.loss_rate > 0 and link.loss_rng.random() < link.loss_rate:
            link.counters["corrupted"] += 1.0
            # no delivery to hold the finish's place, so the finish goes
            # on the heap itself
            self._next_armed = True
            if not finish >= now or not now <= finish:
                raise sim.refusal(finish, now)
            self._tx_seq = seq = sim._seq
            sim._seq = seq + 1
            heappush(sim._queue, (finish, now, seq, self._start_next, None))
            return
        due = finish + link.delay_s
        if not due >= now or not finish <= due:
            raise sim.refusal(due, finish)
        self._tx_seq = seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._queue, (due, finish, seq, sink.receive, packet))
        if queue.occupancy_bytes:
            self._next_armed = True
            if not finish >= now or not now <= finish:
                raise sim.refusal(finish, now)
            sim._seq += 1
            heappush(sim._queue, (finish, now, seq, self._start_next, None))
