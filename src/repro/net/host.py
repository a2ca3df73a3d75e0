"""End hosts.

A :class:`Host` owns a NIC, demultiplexes arriving packets to registered
flow endpoints (TCP connections and receivers), and charges the CPU work
of each flow — wire bytes and packet events, retransmissions,
congestion-control computation — to that flow's tally. Which tally is
the host's listener's answer, asked once per flow: the energy layer
answers with a CPU package, and keeping the host ignorant of energy
keeps the network substrate independently testable.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol

from repro.errors import NetworkConfigError
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.trace import CounterSet, Counted


class FlowEndpoint(Protocol):
    """Anything that terminates a flow on a host (sender or receiver side)."""

    def handle_packet(self, packet: Packet) -> None:
        """Process a packet addressed to this endpoint."""
        ...  # pragma: no cover - protocol definition


class FlowTally:
    """One flow's CPU work, added up in place by its host: wire bytes and
    packet events both ways, retransmissions, congestion-control cost."""

    def __init__(self) -> None:
        self.wire_bytes = 0
        self.packet_events = 0
        self.retransmissions = 0
        self.cc_units = 0.0


class HostListener:
    """A host's one accountant. The host asks it once per flow — at the
    flow's first packet sent or received or first congestion-control
    charge — which tally the flow's work goes to, and adds to the answer
    itself from then on. This base class answers a tally nobody reads."""

    def tally_for(self, flow_id: int) -> FlowTally:
        """The tally ``flow_id``'s work is added to."""
        return FlowTally()


#: the listener of a host nobody accounts for
_NOBODY = HostListener()


class Host(Counted):
    """A server end-host: NIC + flow demux + per-flow work tallies."""

    COUNTER_FIELDS = ("tx_packets", "tx_bytes", "rx_packets", "rx_bytes", "cc_ops")

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        #: installed by :meth:`attach_nic`
        self.nic: Optional[Nic] = None
        self._endpoints: Dict[int, FlowEndpoint] = {}
        self._listener = _NOBODY
        #: flow id -> the listener's answer for it
        self._tallies: Dict[int, FlowTally] = {}
        self._counters = CounterSet()
        self.rx_packets = 0
        self.rx_bytes = 0
        self.cc_ops = 0

    @property
    def tx_packets(self) -> int:
        """Packets sent: the NIC's count, as every send goes through it."""
        return 0 if self.nic is None else self.nic.tx_packets

    @property
    def tx_bytes(self) -> int:
        """Bytes sent (IP packet sizes): the NIC's count."""
        return 0 if self.nic is None else self.nic.tx_bytes

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

    def add_listener(self, listener: HostListener) -> None:
        """Make ``listener`` this host's accountant (one per host)."""
        if self._listener is not _NOBODY:
            raise NetworkConfigError(f"{self.name}: already has a listener")
        self._listener = listener
        self._tallies.clear()

    def forget_tally(self, flow_id: int) -> None:
        """Ask the listener again at ``flow_id``'s next charge (its
        answer changed, e.g. the flow was re-pinned)."""
        self._tallies.pop(flow_id, None)

    def _tally(self, flow_id: int) -> FlowTally:
        """The flow's tally, asked for at its first charge."""
        tally = self._tallies[flow_id] = self._listener.tally_for(flow_id)
        return tally

    # -- data path --------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Transmit a packet via the NIC, charging it to its flow."""
        if self.nic is None:
            raise NetworkConfigError(f"{self.name}: no NIC attached")
        packet.sent_time = self.sim.now
        tally = self._tallies.get(packet.flow_id) or self._tally(packet.flow_id)
        if packet.retransmitted:
            self._counters["retransmissions"] += 1.0
            tally.retransmissions += 1
        tally.wire_bytes += packet.wire_bytes
        tally.packet_events += 1
        return self.nic.send(packet)

    def receive(self, packet: Packet) -> None:
        """Demultiplex an arriving packet to its flow endpoint."""
        self.rx_packets += 1
        self.rx_bytes += packet.size_bytes
        # a packet event costs the same in either direction
        tally = self._tallies.get(packet.flow_id) or self._tally(packet.flow_id)
        tally.wire_bytes += packet.wire_bytes
        tally.packet_events += 1
        endpoint = self._endpoints.get(packet.flow_id)
        if endpoint is None:
            self._counters["rx_unroutable"] += 1.0
            return
        endpoint.handle_packet(packet)

    def notify_cc_op(self, cost_units: float, flow_id: int = -1) -> None:
        """Charge ``cost_units`` of congestion-control computation."""
        self.cc_ops += 1
        tally = self._tallies.get(flow_id) or self._tally(flow_id)
        tally.cc_units += cost_units

    @property
    def mtu_bytes(self) -> int:
        """The NIC MTU (TCP uses this to size segments)."""
        if self.nic is None:
            raise NetworkConfigError(f"{self.name}: no NIC attached")
        return self.nic.mtu_bytes
