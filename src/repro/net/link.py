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
(:meth:`Interface._start_next`) only while a packet waits in the
queue or when the frame was lost. Nothing ever cancels a delivery or a
finish, so both are pushed with
:meth:`~repro.sim.engine.Simulator.push`: a heap entry, no
:class:`~repro.sim.engine.Event`. The order of same-instant events is
that of a link which always pushes a finish event and lets it push the
delivery: the delivery is *placed* at the finish instant, a finish pushed
late takes the place it would have had, and an arrival at exactly
``busy_until`` asks whether the finish would have run yet (see the
design notes of :mod:`repro.sim.engine`).

A packet that waits for nothing is queued nowhere: one that finds the
wire free starts inside :meth:`Interface.enqueue`, which is the only
thing a caller (a switch, a NIC, a test's stand-in wire) ever calls;
:meth:`Interface._start_transmission` is the same statements for a
packet :meth:`Interface._start_next` took out of the queue. Whether the
wire is free is decided as before — ``now > busy_until``, or
:meth:`Interface._finished` on the tie — and the start reads the same
clock, does the same float operations in the same order, draws the same
loss variate and makes the same one ``push`` whichever frame it runs
in, so departure times, heap keys and tie order are those of the
two-frame hop. The only statement the free-wire copy lacks is arming a
finish for a packet left in the queue: a free wire has none.
``tests/net/test_interface_oracle.py`` runs both paths in lockstep with
the two-event interface.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from repro.errors import NetworkConfigError
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.trace import CounterSet
from repro.units import BITS_PER_BYTE


class PacketSink(Protocol):
    """Anything that can receive packets from a link."""

    def receive(self, packet: Packet) -> None:
        """Handle an arriving packet."""
        ...  # pragma: no cover - protocol definition


class Link:
    """Unidirectional link: serialization at ``rate_bps`` + fixed delay.

    ``loss_rate`` models random corruption (bit errors, flaky optics):
    each packet is independently dropped with that probability. The draw
    is made when serialization starts and the frame holds the wire all
    the same. Deterministic given ``loss_rng``; used by robustness
    tests and failure-injection experiments.

    The link holds no behaviour of its own: the :class:`Interface` that
    feeds it reads these attributes on every packet (so a test may make
    a built link lossy) and keeps :attr:`counters`.
    """

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
        if not delay_s >= 0:
            raise NetworkConfigError(f"link delay must be >= 0, got {delay_s}")
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
        self.counters = CounterSet()

    def connect(self, sink: PacketSink) -> None:
        """Attach the receiving end."""
        self.sink = sink


class Interface:
    """An egress interface: queue + link + transmit loop.

    ``on_dequeue`` (optional) fires when a packet leaves the queue and
    starts serializing — the hook the energy model uses to charge per-
    packet transmit CPU work at the moment the host actually does it.
    """

    def __init__(
        self,
        sim: Simulator,
        queue: DropTailQueue,
        link: Link,
        name: str = "interface",
        on_drop: Optional[Callable[[Packet], None]] = None,
        on_dequeue: Optional[Callable[[Packet], None]] = None,
        min_packet_gap_s: float = 0.0,
        int_telemetry: bool = False,
    ):
        if not min_packet_gap_s >= 0:
            raise NetworkConfigError(
                f"min packet gap must be >= 0, got {min_packet_gap_s}"
            )
        self.sim = sim
        self.queue = queue
        self.link = link
        self.name = name
        self.on_drop = on_drop
        self.on_dequeue = on_dequeue
        #: per-packet processing floor: the host CPU/DMA path cannot emit
        #: packets faster than one per this many seconds, which is what
        #: keeps small-MTU configurations below line rate (paper §4.4)
        self.min_packet_gap_s = min_packet_gap_s
        #: stamp INT metadata (queue length, cumulative tx bytes, link
        #: rate, timestamp) on departing packets — HPCC's switch support
        self.int_telemetry = int_telemetry
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
        self.counters = CounterSet()

    @property
    def busy(self) -> bool:
        """Whether a packet is currently being serialized."""
        now = self.sim.now
        return now < self.busy_until or (
            now == self.busy_until and not self._finished()
        )

    @property
    def backlog_bytes(self) -> int:
        """Bytes waiting in the queue (not counting the in-flight packet)."""
        return self.queue.occupancy_bytes

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
            # _start_transmission(packet), in this frame: the whole hop
            # of a packet that found the wire free. A free wire has an
            # empty queue (had anything waited, the finish was armed and
            # started it), so nothing is left behind to arm a finish for.
            link = self.link
            sink = link.sink
            if sink is None:
                raise NetworkConfigError(f"{link.name}: no sink connected")
            if self.on_dequeue is not None:
                self.on_dequeue(packet)
            wire_bytes = packet.wire_bytes
            self._tx_bytes_total += wire_bytes
            if self.int_telemetry and not packet.is_ack:
                packet.int_qlen_bytes = self.queue.occupancy_bytes
                packet.int_tx_bytes = self._tx_bytes_total
                packet.int_timestamp = now
                packet.int_link_rate_bps = link.rate_bps
            hold = wire_bytes * BITS_PER_BYTE / link.rate_bps
            gap = self.min_packet_gap_s
            finish = now + (gap if gap > hold else hold)
            self.busy_until = finish
            self._tx_start = now
            wire = link.counters
            wire["tx_packets"] += 1.0
            wire["tx_bytes"] += wire_bytes
            self.counters["tx_packets"] += 1.0
            if link.loss_rate > 0 and link.loss_rng.random() < link.loss_rate:
                wire["corrupted"] += 1.0
                self._next_armed = True
                self._tx_seq = sim.push(finish, now, None, self._start_next, ())
                return True
            self._tx_seq = sim.push(
                finish + link.delay_s, finish, None, sink.receive, (packet,)
            )
            return True
        accepted = self.queue.enqueue(packet)
        if not accepted:
            self.counters["drops"] += 1.0
            if self.on_drop is not None:
                self.on_drop(packet)
        elif not self._next_armed:
            self._next_armed = True
            sim.push(
                self.busy_until, self._tx_start, self._tx_seq,
                self._start_next, (),
            )
        return accepted

    def _start_transmission(self, packet: Packet) -> None:
        """The whole hop: the packet holds the wire for its wire time and,
        unless a bit error kills it, reaches the sink one propagation
        delay after that."""
        sim = self.sim
        link = self.link
        sink = link.sink
        if sink is None:
            raise NetworkConfigError(f"{link.name}: no sink connected")
        if self.on_dequeue is not None:
            self.on_dequeue(packet)
        now = sim.now
        wire_bytes = packet.wire_bytes
        self._tx_bytes_total += wire_bytes
        if self.int_telemetry and not packet.is_ack:
            packet.int_qlen_bytes = self.queue.occupancy_bytes
            packet.int_tx_bytes = self._tx_bytes_total
            packet.int_timestamp = now
            packet.int_link_rate_bps = link.rate_bps
        hold = wire_bytes * BITS_PER_BYTE / link.rate_bps
        gap = self.min_packet_gap_s
        finish = now + (gap if gap > hold else hold)
        self.busy_until = finish
        self._tx_start = now
        wire = link.counters
        wire["tx_packets"] += 1.0
        wire["tx_bytes"] += wire_bytes
        self.counters["tx_packets"] += 1.0
        if link.loss_rate > 0 and link.loss_rng.random() < link.loss_rate:
            wire["corrupted"] += 1.0
            # no delivery to hold the finish's place, so the finish goes
            # on the heap itself
            self._next_armed = True
            self._tx_seq = sim.push(finish, now, None, self._start_next, ())
            return
        self._tx_seq = seq = sim.push(
            finish + link.delay_s, finish, None, sink.receive, (packet,)
        )
        if self.queue.occupancy_bytes:
            self._next_armed = True
            sim.push(finish, now, seq, self._start_next, ())

    def _start_next(self) -> None:
        """A transmission finished with something waiting behind it (or
        with its frame lost): the next queued packet, if any, starts."""
        self._next_armed = False
        queue = self.queue
        if queue.occupancy_bytes:  # an empty queue is not asked
            nxt = queue.dequeue()
            if nxt is not None:
                self._start_transmission(nxt)
