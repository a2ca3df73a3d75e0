"""Network substrate: packets, queues, links, NICs, switch, hosts, topology."""

from __future__ import annotations

from repro.net.host import FlowEndpoint, Host, HostListener
from repro.net.link import Interface, Link, PacketSink
from repro.net.nic import Nic
from repro.net.packet import (
    ETHERNET_OVERHEAD_BYTES,
    TCP_IP_HEADER_BYTES,
    Packet,
    mss_for_mtu,
)
from repro.net.queue import DropTailQueue, EcnQueue, PriorityQueue
from repro.net.switch import Switch
from repro.net.topology import (
    ConservationLedger,
    Fabric,
    FabricConfig,
    TestbedConfig,
    build_fat_tree,
    build_leaf_spine,
    build_testbed,
)

__all__ = [
    "Packet",
    "mss_for_mtu",
    "TCP_IP_HEADER_BYTES",
    "ETHERNET_OVERHEAD_BYTES",
    "DropTailQueue",
    "EcnQueue",
    "PriorityQueue",
    "Link",
    "Interface",
    "PacketSink",
    "Nic",
    "Switch",
    "Host",
    "HostListener",
    "FlowEndpoint",
    "TestbedConfig",
    "build_testbed",
    "Fabric",
    "FabricConfig",
    "ConservationLedger",
    "build_leaf_spine",
    "build_fat_tree",
]
