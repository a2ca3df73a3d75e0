"""An output-queued switch with an optional default ECMP group.

Models a Tofino-class device at the level the paper exercises it:
packets arrive, are looked up in a static forwarding table, and are
queued on the chosen output port. Each output port is an
:class:`~repro.net.link.Interface` (queue + link), so the bottleneck
behaviour — queue growth, DropTail loss, ECN marking — happens here.

For multi-switch fabrics a destination may be reachable over several
equal-cost ports (leaf uplinks toward the spines).
:meth:`set_default_ecmp` installs such a group; member selection
hashes the flow identity (src, dst, flow id) with CRC32 the way real
switches hash the 5-tuple, so a flow's path is deterministic, stable for
the flow's lifetime, and independent of Python's per-process ``hash``
randomisation. The switch name salts the hash to avoid the classic
hash-polarisation pathology where every switch on a path makes the same
choice and half the fabric's links carry no traffic.

Prior work cited by the paper finds switch power is essentially
load-independent; per-switch power accounting for fleets lives in
:mod:`repro.energy.fleet`, which reads the port counters this module
maintains rather than coupling the forwarding path to an energy model.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import NetworkConfigError
from repro.net.link import Interface
from repro.net.packet import ETHERNET_OVERHEAD_BYTES, Packet
from repro.sim.trace import CounterSet, Counted

#: a flow's switching identity: (src host, dst host, flow id)
FlowKey = Tuple[str, str, int]


class Switch(Counted):
    """Static-forwarding output-queued switch with a default ECMP group.

    The switch keeps no per-packet count of its own: every packet it
    receives is on one of its ports' links, waiting in that port's
    queue, or counted among that queue's drops, so ``rx_packets`` and
    ``rx_bytes`` read the ports.
    """

    COUNTER_FIELDS = ("rx_packets", "rx_bytes")

    def __init__(self, name: str = "switch"):
        self.name = name
        self._ports: Dict[str, Interface] = {}
        self._default_ecmp: Optional[List[Interface]] = None
        self._flow_port_cache: Dict[FlowKey, Interface] = {}
        # salt once: hashing f"{name}|..." per packet would rebuild the
        # prefix every lookup
        self._hash_salt = zlib.crc32(name.encode("utf-8"))
        self._counters = CounterSet()

    # -- forwarding table ---------------------------------------------

    def add_port(self, dst_host: str, interface: Interface) -> None:
        """Route packets destined to ``dst_host`` out of ``interface``."""
        if dst_host in self._ports:
            raise NetworkConfigError(f"{self.name}: duplicate route for {dst_host}")
        self._ports[dst_host] = interface

    def set_default_ecmp(self, interfaces: Sequence[Interface]) -> None:
        """ECMP group used for any destination with no exact route.

        Leaf switches in a leaf–spine fabric route every non-local
        destination up to the spines; a default group keeps the table
        O(local hosts) instead of O(all hosts).
        """
        if not interfaces:
            raise NetworkConfigError(f"{self.name}: empty default ECMP group")
        self._default_ecmp = list(interfaces)

    def _ecmp_member(
        self, group: List[Interface], packet: Packet
    ) -> Interface:
        """Deterministic per-flow member choice, cached for path stability."""
        key = (packet.src, packet.dst, packet.flow_id)
        port = self._flow_port_cache.get(key)
        if port is None:
            digest = zlib.crc32(
                f"{key[0]}|{key[1]}|{key[2]}".encode("utf-8"), self._hash_salt
            )
            port = group[digest % len(group)]
            self._flow_port_cache[key] = port
        return port

    def port_for_packet(self, packet: Packet) -> Interface:
        """The output interface this packet will be queued on."""
        port = self._ports.get(packet.dst)
        if port is not None:
            return port
        group = self._default_ecmp
        if group is None:
            raise NetworkConfigError(
                f"{self.name}: no route to {packet.dst!r} "
                f"(known: {sorted(self._ports)})"
            )
        return self._ecmp_member(group, packet)

    def ports(self) -> List[Interface]:
        """Every distinct output interface, in stable insertion order."""
        seen: Dict[int, Interface] = {}
        for iface in self._ports.values():
            seen.setdefault(id(iface), iface)
        if self._default_ecmp is not None:
            for iface in self._default_ecmp:
                seen.setdefault(id(iface), iface)
        return list(seen.values())

    @property
    def rx_packets(self) -> int:
        """Packets received: started on a port's link, queued, or dropped."""
        return sum(
            port.link.tx_packets
            + len(port.queue)
            + int(port.queue.counters.get("drops"))
            for port in self.ports()
        )

    @property
    def rx_bytes(self) -> int:
        """IP bytes received: the ports' wire bytes less each started
        frame's Ethernet framing, plus the bytes queued and dropped."""
        return sum(
            port.link.tx_bytes
            - ETHERNET_OVERHEAD_BYTES * port.link.tx_packets
            + port.queue.occupancy_bytes
            + int(port.queue.counters.get("dropped_bytes"))
            for port in self.ports()
        )

    # -- data path ----------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """Forward an arriving packet to its output port."""
        # an exact route is one dict hit; ECMP goes through the lookup
        port = self._ports.get(packet.dst) or self.port_for_packet(packet)
        if not port.enqueue(packet):
            self._counters["forward_drops"] += 1.0
