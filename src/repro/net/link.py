"""Links and egress interfaces.

A :class:`Link` describes a unidirectional pipe: a fixed bit rate, a
propagation delay, an optional corruption rate, the receiving end and
the wire's counters. An :class:`Interface` couples a queue to a link and
implements the store-and-forward loop: if the link is idle a packet
starts serializing immediately, otherwise it waits in the queue; when a
serialization finishes, delivery is scheduled one propagation delay later
and the next packet (if any) starts.

This is the classic ns-2 ``Queue + DelayLink`` decomposition and is the
only place in the library where virtual time is consumed by data motion.
Each packet costs each hop two events, and each of the two runs in one
Python frame: :meth:`Interface._start_transmission` and
:meth:`Interface._finish_transmission` do their whole stage themselves
rather than through per-step helpers on the link.
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
    each packet is independently dropped with that probability after
    serialization. Deterministic given ``loss_rng``; used by robustness
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
        if rate_bps <= 0:
            raise NetworkConfigError(f"link rate must be > 0, got {rate_bps}")
        if delay_s < 0:
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
        if min_packet_gap_s < 0:
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
        self._busy = False
        self.counters = CounterSet()

    @property
    def busy(self) -> bool:
        """Whether a packet is currently being serialized."""
        return self._busy

    @property
    def backlog_bytes(self) -> int:
        """Bytes waiting in the queue (not counting the in-flight packet)."""
        return self.queue.occupancy_bytes

    def enqueue(self, packet: Packet) -> bool:
        """Submit a packet for transmission. Returns False if dropped."""
        # An idle interface has an empty queue: only _finish_transmission
        # clears _busy, and only when nothing was left to dequeue.
        if not self._busy:
            self._start_transmission(packet)
            return True
        accepted = self.queue.enqueue(packet)
        if not accepted:
            self.counters["drops"] += 1.0
            if self.on_drop is not None:
                self.on_drop(packet)
        return accepted

    def _start_transmission(self, packet: Packet) -> None:
        """Serialization stage: hold the link for the packet's wire time."""
        self._busy = True
        if self.on_dequeue is not None:
            self.on_dequeue(packet)
        sim = self.sim
        link = self.link
        self._tx_bytes_total += packet.wire_bytes
        if self.int_telemetry and not packet.is_ack:
            packet.int_qlen_bytes = self.queue.occupancy_bytes
            packet.int_tx_bytes = self._tx_bytes_total
            packet.int_timestamp = sim.now
            packet.int_link_rate_bps = link.rate_bps
        hold = max(
            packet.wire_bytes * BITS_PER_BYTE / link.rate_bps,
            self.min_packet_gap_s,
        )
        sim.schedule_at(sim.now + hold, self._finish_transmission, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        """Delivery stage: the frame is on the wire; one propagation delay
        later it reaches the sink, unless a bit error kills it. Then the
        next queued packet, if any, starts serializing."""
        sim = self.sim
        link = self.link
        sink = link.sink
        if sink is None:
            raise NetworkConfigError(f"{link.name}: no sink connected")
        wire = link.counters
        wire["tx_packets"] += 1.0
        wire["tx_bytes"] += packet.wire_bytes
        if link.loss_rate > 0 and link.loss_rng.random() < link.loss_rate:
            wire["corrupted"] += 1.0
        else:
            sim.schedule_at(sim.now + link.delay_s, sink.receive, packet)
        self.counters["tx_packets"] += 1.0
        # an empty queue is not asked: most departures leave nothing behind
        queue = self.queue
        nxt = queue.dequeue() if queue.occupancy_bytes else None
        if nxt is not None:
            self._start_transmission(nxt)
        else:
            self._busy = False
