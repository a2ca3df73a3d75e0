"""Egress queues: DropTail and ECN-marking (DCTCP-style) variants.

A queue sits in front of every link (host NIC egress and switch output
port alike). Queue occupancy is accounted in bytes, the unit real switch
buffers are sized in, so MTU changes shift how many *packets* fit without
changing capacity.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.errors import NetworkConfigError
from repro.net.packet import Packet
from repro.sim.probe import QUEUE_DEPTH_CHANNEL, QUEUE_DROPS_CHANNEL
from repro.sim.trace import CounterSet

if TYPE_CHECKING:
    from repro.sim.engine import Simulator


class DropTailQueue:
    """A FIFO byte-limited queue that drops arrivals when full."""

    def __init__(self, capacity_bytes: int, name: str = "queue"):
        if capacity_bytes <= 0:
            raise NetworkConfigError(f"queue capacity must be > 0, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.name = name
        self._items: Deque[Packet] = deque()
        #: bytes currently queued; only the queue writes it. A plain
        #: attribute because the interface reads it on every departure
        #: (zero means empty: no packet is smaller than its headers).
        self.occupancy_bytes = 0
        self.counters = CounterSet()
        #: telemetry clock source; queues have no simulator reference of
        #: their own, so topology builders attach one for the queues
        #: worth observing (the bottleneck)
        self._probe_sim: Optional["Simulator"] = None
        #: virtual instant of the last depth sample handed to a
        #: downsampling sink
        self._probe_depth_kept = float("-inf")

    def attach_probe(self, sim: "Simulator") -> None:
        """Bind this queue to ``sim`` for depth/drop telemetry.

        Samples go to ``sim.probe_sink`` stamped with virtual time; an
        unattached queue (or a no-op sink) emits nothing.
        """
        self._probe_sim = sim

    def _probe_depth(self, sim: "Simulator") -> None:
        """Sample the depth. Every enqueue and dequeue is a sample
        point, so the call sites test "attached, collecting, and not
        inside the sink's ``min_interval_s`` of the last sample kept"
        before spending a frame here: the bottleneck queue is always
        attached, mostly unobserved, and a traced run keeps one sample
        in hundreds. A sample the sink would drop is not built."""
        now = sim.now
        self._probe_depth_kept = now
        sim.probe_sink.sample(
            now, QUEUE_DEPTH_CHANNEL, self.name, float(self.occupancy_bytes)
        )

    def _probe_drop(self) -> None:
        sim = self._probe_sim
        if sim is not None and sim.probe_sink.enabled:
            sim.probe_sink.sample(
                sim.now, QUEUE_DROPS_CHANNEL, self.name,
                self.counters.get("drops"),
            )

    # -- state ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        return not self._items

    # -- operations -------------------------------------------------------

    def enqueue(self, packet: Packet) -> bool:
        """Add ``packet``; returns False (and counts a drop) if it doesn't fit."""
        if self.occupancy_bytes + packet.size_bytes > self.capacity_bytes:
            self.counters["drops"] += 1.0
            self.counters["dropped_bytes"] += packet.size_bytes
            self._probe_drop()
            return False
        self._mark(packet)
        self._items.append(packet)
        self.occupancy_bytes += packet.size_bytes
        self.counters["enqueued"] += 1.0
        sim = self._probe_sim
        if sim is not None and sim.probe_sink.enabled:
            interval = sim.probe_sink.min_interval_s
            if interval is None or not (
                sim.now - self._probe_depth_kept < interval
            ):
                self._probe_depth(sim)
        return True

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the head packet, or None when empty."""
        if not self._items:
            return None
        packet = self._items.popleft()
        self.occupancy_bytes -= packet.size_bytes
        self.counters["dequeued"] += 1.0
        sim = self._probe_sim
        if sim is not None and sim.probe_sink.enabled:
            interval = sim.probe_sink.min_interval_s
            if interval is None or not (
                sim.now - self._probe_depth_kept < interval
            ):
                self._probe_depth(sim)
        return packet

    # -- hooks ------------------------------------------------------------

    def _mark(self, packet: Packet) -> None:
        """Hook for AQM subclasses; DropTail never marks."""


class PriorityQueue(DropTailQueue):
    """pFabric-style priority queue (Alizadeh et al. 2013).

    Packets carry a priority (senders stamp the flow's *remaining*
    bytes). Scheduling follows pFabric's two rules:

    * **dequeue**: serve the most urgent *flow* (smallest current
      remaining), but within that flow transmit the *earliest* packet —
      never reorder a flow against itself (reordering would trigger
      spurious SACK-based retransmissions at the sender);
    * **drop**: when full, evict from the *least* urgent flow, newest
      packet first, in favour of a more urgent arrival.

    §5 of the paper identifies exactly this SRPT approximation as the
    transport direction for energy efficiency ("send as fast as possible
    for minimal completion time"). Unprioritized packets are treated as
    least urgent.
    """

    def __init__(self, capacity_bytes: int, name: str = "pq"):
        super().__init__(capacity_bytes, name=name)
        self._flows: dict = {}       # flow_id -> Deque[Packet], FIFO
        self._flow_prio: dict = {}   # flow_id -> latest stamped priority

    @staticmethod
    def _priority_of(packet: Packet) -> int:
        return packet.priority if packet.priority is not None else 1 << 62

    def _update_prio(self, flow_id: int, priority: int) -> None:
        current = self._flow_prio.get(flow_id)
        if current is None or priority < current:
            self._flow_prio[flow_id] = priority

    def _most_urgent_flow(self) -> Optional[int]:
        best = None
        for flow_id, queue in self._flows.items():
            if not queue:
                continue
            if best is None or self._flow_prio[flow_id] < self._flow_prio[best]:
                best = flow_id
        return best

    def _least_urgent_flow(self) -> Optional[int]:
        worst = None
        for flow_id, queue in self._flows.items():
            if not queue:
                continue
            if worst is None or self._flow_prio[flow_id] > self._flow_prio[worst]:
                worst = flow_id
        return worst

    def enqueue(self, packet: Packet) -> bool:
        arriving_prio = self._priority_of(packet)
        counters = self.counters
        while self.occupancy_bytes + packet.size_bytes > self.capacity_bytes:
            victim_flow = self._least_urgent_flow()
            if (
                victim_flow is None
                or self._flow_prio[victim_flow] <= arriving_prio
            ):
                counters["drops"] += 1.0
                counters["dropped_bytes"] += packet.size_bytes
                self._probe_drop()
                return False
            victim = self._flows[victim_flow].pop()  # newest of worst flow
            self.occupancy_bytes -= victim.size_bytes
            counters["drops"] += 1.0
            counters["evictions"] += 1.0
            counters["dropped_bytes"] += victim.size_bytes
            self._probe_drop()
        queue = self._flows.setdefault(packet.flow_id, deque())
        queue.append(packet)
        self._update_prio(packet.flow_id, arriving_prio)
        self.occupancy_bytes += packet.size_bytes
        self.counters["enqueued"] += 1.0
        sim = self._probe_sim
        if sim is not None and sim.probe_sink.enabled:
            interval = sim.probe_sink.min_interval_s
            if interval is None or not (
                sim.now - self._probe_depth_kept < interval
            ):
                self._probe_depth(sim)
        return True

    def dequeue(self) -> Optional[Packet]:
        flow_id = self._most_urgent_flow()
        if flow_id is None:
            return None
        packet = self._flows[flow_id].popleft()  # earliest packet, in order
        if not self._flows[flow_id]:
            del self._flows[flow_id]
            del self._flow_prio[flow_id]
        self.occupancy_bytes -= packet.size_bytes
        self.counters["dequeued"] += 1.0
        sim = self._probe_sim
        if sim is not None and sim.probe_sink.enabled:
            interval = sim.probe_sink.min_interval_s
            if interval is None or not (
                sim.now - self._probe_depth_kept < interval
            ):
                self._probe_depth(sim)
        return packet

    def __len__(self) -> int:
        return sum(len(q) for q in self._flows.values())

    @property
    def empty(self) -> bool:
        return all(not q for q in self._flows.values())


class EcnQueue(DropTailQueue):
    """DropTail plus DCTCP-style step marking.

    Packets that are ECN-capable get their CE bit set when the
    instantaneous queue occupancy (at enqueue time) is at or above
    ``mark_threshold_bytes`` — the single-threshold marking DCTCP
    expects from the switch (paper's testbed is a Tofino doing exactly
    this).
    """

    def __init__(
        self,
        capacity_bytes: int,
        mark_threshold_bytes: int,
        name: str = "ecn-queue",
    ):
        super().__init__(capacity_bytes, name=name)
        if not 0 < mark_threshold_bytes <= capacity_bytes:
            raise NetworkConfigError(
                f"mark threshold {mark_threshold_bytes} must be in "
                f"(0, {capacity_bytes}]"
            )
        self.mark_threshold_bytes = mark_threshold_bytes

    def _mark(self, packet: Packet) -> None:
        if (
            packet.ecn_capable
            and self.occupancy_bytes >= self.mark_threshold_bytes
        ):
            packet.ecn_marked = True
            self.counters["ecn_marks"] += 1.0
