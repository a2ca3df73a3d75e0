"""Network interface cards, including round-robin link bonding.

The paper's sender is attached to the switch with two bonded 10 Gb/s
links, packets sprayed round-robin, so the *switch* (not the sender NIC)
is the bottleneck. :class:`Nic` reproduces that: it owns one or more
egress :class:`~repro.net.link.Interface` objects and sprays packets
across them.

Every NIC is paced: it emits at most one packet per
:data:`HOST_MIN_PACKET_GAP_S`, the host's per-packet CPU cost, with a
drop-tail qdisc behind it. The transmit path is demand-driven. A
``_drain`` event exists only while something waits: each drain
dispatches one packet, wakes the drain listeners (TCP senders) *if one
of them asked to be woken* and schedules the next drain one
gap later *if the qdisc still holds a packet*. After the last packet it
just records the earliest next transmit time, so an idle NIC leaves
nothing in the event heap; the next :meth:`Nic.send` dispatches at once
when the gap has already elapsed and otherwise arms one drain at the
recorded instant. Departure times are those of a NIC that ticks every
gap whether or not anything is queued.

A packet that waits for nothing is queued nowhere. :meth:`Nic.send` on
an idle NIC (no drain armed or running, no phantom slot owed, the gap
elapsed) does in its own frame what a drain does with the packet it
pops, and touches neither the qdisc nor ``flow_backlog``: putting a
packet in and taking it out within one instant is visible to nobody.
That path is the queued one statement for statement, which is why it
changes nothing a run can see:

* *departure times*: the packet leaves at ``now`` on both, and the next
  transmit time is ``now + gap`` from the same two floats;
* *wake-ups*: a listener is woken after the spray on both, and reads a
  ``flow_backlog`` without the departing packet on both (a drain has
  popped it by then; here it was never added). The NIC counts as
  draining meanwhile, so a listener that sends from inside the wake-up
  queues behind the departure exactly as it does behind a drain, and
  one ``_drain`` is armed a gap later for what it queued;
* *tie order*: no event is pushed on either when nothing queues, and
  when a listener queued something the one push is made at the same
  point of the same instant, so it draws the same sequence number.

Nothing cancels a drain, so a drain is an entry on the simulator's
packet heap and no :class:`~repro.sim.engine.Event`, written in place as
the design notes of :mod:`repro.sim.engine` state:
:meth:`~repro.sim.engine.Simulator.push`'s two NaN-safe checks, one
``seq`` drawn, one ``heappush``; the entry's one argument is ``None``,
which ``_drain`` ignores.

``tests/net/test_nic.py`` keeps the always-queueing ``send`` as
``QueuedNic`` and runs both on the same traffic.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable, Deque, Dict, List, Sequence

from repro.errors import NetworkConfigError
from repro.net.link import Interface
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.trace import CounterSet, Counted
from repro.units import usec

#: minimum spacing between packets a host can sustain (CPU/DMA
#: per-packet cost), every host's NIC gap. §4.4 needs an MTU of 9000
#: bytes "to achieve the full 10 Gb/s line rate", so at 1500 B the hosts
#: are pps-bound below it: Fig. 7's 1500-byte cluster finishes 50 GB in
#: ~75-90 s, i.e. ~4.5-5.3 Gb/s. 1576 wire bytes / 2.35 us ~= 5.4 Gb/s at
#: MTU 1500; MTU >= 3000 reaches line rate.
HOST_MIN_PACKET_GAP_S = usec(2.35)


class Nic(Counted):
    """A host NIC with an MTU and one or more bonded egress interfaces.

    The transmit path emits at most one packet per ``tx_packet_gap_s``,
    *across* all bonded links. This is what keeps small-MTU
    configurations below line rate (paper §4.4: 9000-byte MTU was needed
    "to achieve the full 10 Gb/s line rate").
    """

    COUNTER_FIELDS = ("tx_packets", "tx_bytes")

    #: the host's per-packet CPU/DMA cost, seconds
    tx_packet_gap_s = HOST_MIN_PACKET_GAP_S
    #: host qdisc depth (Linux txqueuelen-style, drop-tail like pfifo_fast)
    tx_queue_packets = 1024

    @staticmethod
    def check_limits(mtu_bytes: int) -> None:
        """Raise unless a NIC can have this MTU."""
        if mtu_bytes < 576:
            raise NetworkConfigError(f"MTU {mtu_bytes} below IPv4 minimum of 576")

    def __init__(
        self,
        sim: Simulator,
        interfaces: Sequence[Interface],
        mtu_bytes: int = 1500,
        name: str = "nic",
    ):
        if not interfaces:
            raise NetworkConfigError("NIC needs at least one interface")
        Nic.check_limits(mtu_bytes)
        self.sim = sim
        self.interfaces: List[Interface] = list(interfaces)
        self.mtu_bytes = mtu_bytes
        self.name = name
        self._next_interface = 0
        self._txq: Deque[Packet] = deque()
        #: a ``_drain`` event is scheduled or running, or ``send`` is
        #: dispatching: a packet handed over meanwhile waits its turn
        self._draining = False
        #: earliest instant the next packet may leave (last departure + gap)
        self._next_tx_time = 0.0
        self._phantom_slots = 0
        #: flow id -> bytes that flow has waiting in the host qdisc (no
        #: entry when it has none); only the NIC writes it. TCP Small
        #: Queues reads it once per segment, hence a public attribute
        #: (:meth:`flow_backlog_bytes` is the same lookup as a call).
        self.flow_backlog: Dict[int, int] = {}
        self._drain_listeners: List[Callable[[], None]] = []
        #: wake-ups asked for since the listeners last ran. A listener
        #: whose send stopped on this qdisc adds one; the next drain that
        #: dispatches a packet zeroes it and runs *every* listener, in
        #: registration order, and those still blocked ask again. Zeroed
        #: rather than counted down, so a stale request costs one spare
        #: round of wake-ups and a lost one cannot happen.
        self.drain_waiters = 0
        self._counters = CounterSet()
        self.tx_packets = 0
        self.tx_bytes = 0

    # -- qdisc visibility (TCP Small Queues support) ---------------------

    @property
    def tx_backlog_packets(self) -> int:
        """Packets waiting in the host qdisc."""
        return len(self._txq)

    def add_drain_listener(self, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` when the qdisc drains a packet while
        :attr:`drain_waiters` is non-zero — the wakeup TCP Small Queues
        uses to resume a backpressured sender."""
        self._drain_listeners.append(callback)

    def send(self, packet: Packet) -> bool:
        """Transmit ``packet`` on the next bonded interface (round-robin).

        The packet leaves at once when the NIC is idle and its gap has
        elapsed, and otherwise waits its turn in the qdisc. Returns False
        only when the qdisc is full and drops it.
        """
        if packet.size_bytes > self.mtu_bytes:
            raise NetworkConfigError(
                f"{self.name}: packet of {packet.size_bytes}B exceeds "
                f"MTU {self.mtu_bytes}B — segmentation is the TCP layer's job"
            )
        self.tx_packets += 1
        self.tx_bytes += packet.size_bytes
        sim = self.sim
        if (
            not self._draining
            and not self._phantom_slots
            and sim.now >= self._next_tx_time
        ):
            # Nothing to wait for, so nothing to queue: what ``_drain``
            # does with a packet it pops, in this frame. The qdisc is
            # empty (a drain goes on until it is), so it cannot overflow.
            self._draining = True
            interfaces = self.interfaces
            iface = interfaces[self._next_interface]
            self._next_interface = (self._next_interface + 1) % len(interfaces)
            if not iface.enqueue(packet):
                self._counters["tx_drops"] += 1.0
            if self.drain_waiters:
                self.drain_waiters = 0
                for callback in self._drain_listeners:
                    callback()
            now = sim.now
            due = now + self.tx_packet_gap_s
            if self._txq:
                if not due >= now or not now <= due:
                    raise sim.refusal(due, now)
                seq = sim._seq
                sim._seq = seq + 1
                heappush(sim._queue, (due, now, seq, self._drain, None))
            else:
                self._next_tx_time = due
                self._draining = False
            return True
        if len(self._txq) >= self.tx_queue_packets:
            # The CPU fully processed this packet before the qdisc
            # rejected it — that work is gone but the time was spent, so
            # the transmit path loses one slot to it (this is what makes
            # the no-backpressure baseline measurably *slower*, not just
            # chattier: §4.3's "queuing at the sender host").
            self._phantom_slots += 1
            self._counters["tx_drops"] += 1.0
            self._counters["qdisc_drops"] += 1.0
            return False
        self._txq.append(packet)
        backlog = self.flow_backlog
        backlog[packet.flow_id] = backlog.get(packet.flow_id, 0) + packet.size_bytes
        if not self._draining:
            self._draining = True
            now = sim.now
            due = self._next_tx_time
            if now >= due:
                self._drain()
            else:
                if not due >= now or not now <= due:
                    raise sim.refusal(due, now)
                seq = sim._seq
                sim._seq = seq + 1
                heappush(sim._queue, (due, now, seq, self._drain, None))
        return True

    def _drain(self, _: object = None) -> None:
        sim = self.sim
        if self._phantom_slots > 0:
            # Burn a slot on work the (full, so non-empty) qdisc discarded.
            self._phantom_slots -= 1
        else:
            packet = self._txq.popleft()
            backlog = self.flow_backlog
            left = backlog.get(packet.flow_id, 0) - packet.size_bytes
            if left > 0:
                backlog[packet.flow_id] = left
            else:
                backlog.pop(packet.flow_id, None)
            # the spray, as in ``send``: once per queued packet
            interfaces = self.interfaces
            iface = interfaces[self._next_interface]
            self._next_interface = (self._next_interface + 1) % len(interfaces)
            if not iface.enqueue(packet):
                self._counters["tx_drops"] += 1.0
            if self.drain_waiters:
                self.drain_waiters = 0
                for callback in self._drain_listeners:
                    callback()
        now = sim.now
        due = now + self.tx_packet_gap_s
        if self._txq:
            if not due >= now or not now <= due:
                raise sim.refusal(due, now)
            seq = sim._seq
            sim._seq = seq + 1
            heappush(sim._queue, (due, now, seq, self._drain, None))
        else:
            self._next_tx_time = due
            self._draining = False
