"""End hosts.

A :class:`Host` owns a NIC, demultiplexes arriving packets to registered
flow endpoints (TCP connections and receivers), and publishes stack
events — packet sent/received, retransmission, congestion-control
computation — to listeners. The energy layer subscribes to those events
to account CPU work; keeping the host ignorant of energy keeps the
network substrate independently testable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol

from repro.errors import NetworkConfigError
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.trace import CounterSet


class FlowEndpoint(Protocol):
    """Anything that terminates a flow on a host (sender or receiver side)."""

    def handle_packet(self, packet: Packet) -> None:
        """Process a packet addressed to this endpoint."""
        ...  # pragma: no cover - protocol definition


class HostListener:
    """Subscriber to host stack events. Subclass and override what you need.

    Every hook receives the host so a single listener can serve several
    hosts (the energy meter attaches one CPU model per host but shares
    analysis listeners).
    """

    def on_packet_sent(self, host: "Host", packet: Packet) -> None:
        """A packet was handed to the NIC."""

    def on_packet_received(self, host: "Host", packet: Packet) -> None:
        """A packet arrived and was demultiplexed."""

    def on_retransmit(self, host: "Host", packet: Packet) -> None:
        """A data segment was retransmitted (fast retransmit or RTO)."""

    def on_cc_op(
        self, host: "Host", algorithm: str, cost_units: float, flow_id: int
    ) -> None:
        """The congestion controller ran ``cost_units`` of computation."""


class Host:
    """A server end-host: NIC + flow demux + event publication."""

    def __init__(self, sim: Simulator, name: str, nic: Optional[Nic] = None):
        self.sim = sim
        self.name = name
        self.nic = nic
        self._endpoints: Dict[int, FlowEndpoint] = {}
        self._listeners: List[HostListener] = []
        self.counters = CounterSet()

    # -- wiring ---------------------------------------------------------

    def attach_nic(self, nic: Nic) -> None:
        """Install the host's NIC (must happen before sending)."""
        self.nic = nic

    def register_flow(self, flow_id: int, endpoint: FlowEndpoint) -> None:
        """Bind ``flow_id`` to an endpoint for packet demux."""
        if flow_id in self._endpoints:
            raise NetworkConfigError(
                f"{self.name}: flow {flow_id} already registered"
            )
        self._endpoints[flow_id] = endpoint

    def unregister_flow(self, flow_id: int) -> None:
        """Remove a flow binding (idempotent)."""
        self._endpoints.pop(flow_id, None)

    def add_listener(self, listener: HostListener) -> None:
        """Subscribe to this host's stack events."""
        self._listeners.append(listener)

    # -- data path --------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Transmit a packet via the NIC, publishing the send event."""
        if self.nic is None:
            raise NetworkConfigError(f"{self.name}: no NIC attached")
        packet.sent_time = self.sim.now
        self.counters["tx_packets"] += 1.0
        self.counters["tx_bytes"] += packet.size_bytes
        if packet.retransmitted:
            self.counters["retransmissions"] += 1.0
            for listener in self._listeners:
                listener.on_retransmit(self, packet)
        for listener in self._listeners:
            listener.on_packet_sent(self, packet)
        return self.nic.send(packet)

    def receive(self, packet: Packet) -> None:
        """Demultiplex an arriving packet to its flow endpoint."""
        self.counters["rx_packets"] += 1.0
        self.counters["rx_bytes"] += packet.size_bytes
        for listener in self._listeners:
            listener.on_packet_received(self, packet)
        endpoint = self._endpoints.get(packet.flow_id)
        if endpoint is None:
            self.counters["rx_unroutable"] += 1.0
            return
        endpoint.handle_packet(packet)

    def notify_cc_op(
        self, algorithm: str, cost_units: float, flow_id: int = -1
    ) -> None:
        """Publish a congestion-control computation event."""
        self.counters["cc_ops"] += 1.0
        for listener in self._listeners:
            listener.on_cc_op(self, algorithm, cost_units, flow_id)

    @property
    def mtu_bytes(self) -> int:
        """The NIC MTU (TCP uses this to size segments)."""
        if self.nic is None:
            raise NetworkConfigError(f"{self.name}: no NIC attached")
        return self.nic.mtu_bytes
