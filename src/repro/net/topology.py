"""Topology builders. Each returns a :class:`Fabric`, whose queues and
links are registered, so one packet ledger holds on every network.

:func:`build_testbed` reproduces the paper's lab setup (§3) as a
one-switch fabric: a sender and a receiver attached to one switch, the
sender with two bonded 10 Gb/s links (round-robin spraying) so the
switch's output port toward the receiver — not the sender NIC — is the
bottleneck. With more than one sender host it builds the incast fan-in
§5 names: N senders, each with its own NIC and uplinks, sharing that one
bottleneck. :func:`build_leaf_spine` and :func:`build_fat_tree` build
the multi-switch fabrics.

The link rates, propagation delays and the hosts' per-packet gap are
the testbed's constants: no experiment varies them. The MTU, buffer
size and ECN marking threshold stay parameters (Figs. 5-8's MTU sweep,
the lossy and ECN ablations). A config rejects, through each part's own
check, the MTU, buffer and marking threshold its parts would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, Generic, List, Optional, TypeVar

from repro.errors import NetworkConfigError
from repro.net.host import Host
from repro.net.link import Interface, Link
from repro.net.nic import Nic
from repro.net.queue import DropTailQueue, EcnQueue, PriorityQueue
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.units import gbps, usec


#: what the bottleneck can schedule by: "fifo" (drop-tail, or ECN when a
#: threshold is set) and "priority" (pFabric-style SRPT approximation)
BOTTLENECK_DISCIPLINES = ("fifo", "priority")

def check_discipline(discipline: str) -> None:
    """Raise unless ``discipline`` is one of :data:`BOTTLENECK_DISCIPLINES`."""
    if discipline not in BOTTLENECK_DISCIPLINES:
        raise NetworkConfigError(
            f"unknown bottleneck discipline {discipline!r} "
            f"(known: {', '.join(BOTTLENECK_DISCIPLINES)})"
        )


def _check_parts(config: ConfigT, ecn: bool) -> None:
    """Raise what building ``config``'s hosts and queues would raise."""
    Nic.check_limits(config.mtu_bytes)
    DropTailQueue.check_capacity(config.buffer_bytes)
    if ecn and config.ecn_threshold_bytes is not None:
        EcnQueue.check_threshold(config.ecn_threshold_bytes, config.buffer_bytes)


@dataclass
class TestbedConfig:
    """Parameters of the paper-style dumbbell testbed.

    Defaults mirror §3 of the paper: 10 Gb/s links, 9000 B MTU, the
    sender bonded over two links. Propagation delays are datacenter-scale
    so the base RTT is ~40 µs before queueing.
    """

    link_rate_bps: ClassVar[float] = gbps(10.0)
    link_delay_s: ClassVar[float] = usec(10.0)
    mtu_bytes: int = 9000
    #: uplinks of each sender host
    sender_bonded_links: int = 2
    #: sender hosts, each with its own NIC: one is the paper's testbed,
    #: more is an N-to-1 incast through the same bottleneck
    sender_hosts: int = 1
    #: the buffer of every queue in the testbed: the switch's ports and
    #: the hosts' uplinks alike. Tofino-class switches have tens of MB of
    #: shared buffer; 2 MB per port is a realistic dynamic threshold and
    #: deep enough that 9000-byte MTUs get >200 packets.
    buffer_bytes: int = 2 * 1024 * 1024
    #: DCTCP-style CE marking threshold at the bottleneck; None disables ECN
    ecn_threshold_bytes: Optional[int] = 100 * 1024
    #: stamp in-band telemetry at the bottleneck (HPCC's switch support)
    int_telemetry: bool = False
    #: bottleneck scheduling, one of :data:`BOTTLENECK_DISCIPLINES`
    #: ("priority" is the paper's §5 direction)
    bottleneck_discipline: str = "fifo"

    def __post_init__(self) -> None:
        if self.sender_bonded_links < 1:
            raise NetworkConfigError("need at least one sender link")
        if self.sender_hosts < 1:
            raise NetworkConfigError(f"need >= 1 sender host, got {self.sender_hosts}")
        check_discipline(self.bottleneck_discipline)
        # only a fifo bottleneck marks; every other queue is drop-tail
        _check_parts(self, ecn=self.bottleneck_discipline == "fifo")


@dataclass
class FabricConfig:
    """Parameters of a multi-switch datacenter fabric.

    Defaults describe a small two-tier Clos: every leaf (ToR) switch
    serves one rack of hosts and uplinks to every spine, giving
    ``spines`` equal-cost paths between any pair of racks. Fabric links
    are faster than host links (the usual 4:1 step) so the rack uplinks,
    not the spine ports, congest first under cross-rack load.
    """

    leaves: int = 4
    spines: int = 2
    hosts_per_leaf: int = 4
    host_link_rate_bps: ClassVar[float] = gbps(10.0)
    fabric_link_rate_bps: ClassVar[float] = gbps(40.0)
    link_delay_s: ClassVar[float] = usec(5.0)
    mtu_bytes: int = 9000
    buffer_bytes: int = 2 * 1024 * 1024
    #: ECN marking threshold on every switch egress port; None disables
    ecn_threshold_bytes: Optional[int] = 100 * 1024
    #: stamp in-band telemetry on every switch egress port (HPCC's
    #: switch support; every hop updates the packet's INT record)
    int_telemetry: bool = False

    def __post_init__(self) -> None:
        if self.leaves < 1:
            raise NetworkConfigError(f"need >= 1 leaf, got {self.leaves}")
        if self.spines < 1:
            raise NetworkConfigError(f"need >= 1 spine, got {self.spines}")
        if self.hosts_per_leaf < 1:
            raise NetworkConfigError(
                f"need >= 1 host per leaf, got {self.hosts_per_leaf}"
            )
        _check_parts(self, ecn=True)


#: either config a :class:`Fabric` is built from
ConfigT = TypeVar("ConfigT", TestbedConfig, FabricConfig)


@dataclass
class ConservationLedger:
    """Packet accounting over a whole fabric (the conservation invariant).

    ``residual`` is the number of packets neither delivered nor
    accounted to a loss mechanism — i.e. packets still in flight. After
    the event queue drains it must be exactly zero; the fleet invariant
    suite and the link testbed's ledger pins assert that.
    """

    sent: int
    delivered: int
    queue_drops: int
    qdisc_drops: int
    corrupted: int

    @property
    def residual(self) -> int:
        return (
            self.sent
            - self.delivered
            - self.queue_drops
            - self.qdisc_drops
            - self.corrupted
        )


@dataclass
class Fabric(Generic[ConfigT]):
    """A wired network ready for flows to be attached.

    ``tiers`` maps a tier name ("switch" for the one-switch testbed,
    "leaf"/"spine", or "edge"/"agg"/"core" for fat-trees) to its
    switches in index order; ``host_rack`` maps a host name to the rack
    (leaf / edge-switch index) it lives in. The queue and link
    registries exist so invariants and fleet energy can enumerate every
    loss point and every port without re-walking the wiring.
    ``bottleneck`` is the testbed's contended switch -> receiver port,
    None on the multi-switch fabrics.
    """

    sim: Simulator
    config: ConfigT
    hosts: List[Host]
    tiers: Dict[str, List[Switch]]
    host_rack: Dict[str, int]
    queues: List[DropTailQueue] = field(default_factory=list)
    links: List[Link] = field(default_factory=list)
    bottleneck: Optional[Interface] = None

    @property
    def sender(self) -> Host:
        """The first host: the testbed's (first) sender."""
        return self.hosts[0]

    @property
    def receiver(self) -> Host:
        """The last host: the testbed's receiver."""
        return self.hosts[-1]

    @property
    def switches(self) -> List[Switch]:
        """Every switch, tier by tier in construction order."""
        return [sw for tier in self.tiers.values() for sw in tier]

    def host(self, name: str) -> Host:
        for h in self.hosts:
            if h.name == name:
                return h
        raise NetworkConfigError(f"no host named {name!r} in fabric")

    def rack_hosts(self, rack: int) -> List[Host]:
        """Hosts homed on leaf/edge switch ``rack``."""
        return [h for h in self.hosts if self.host_rack[h.name] == rack]

    def conservation(self) -> ConservationLedger:
        """Packet conservation ledger across every host, queue and link.

        Counts host-level transmissions (data and ACKs alike) against
        deliveries plus every loss mechanism in the fabric: switch/NIC
        egress queue drops, host qdisc drops, and on-wire corruption.
        NIC ``tx_drops`` is deliberately *not* a term — each such drop
        is already counted by the egress queue that turned the packet
        away or as a ``qdisc_drops``, and interface ``drops`` mirrors
        the queue's own counter.
        """
        return ConservationLedger(
            sent=sum(h.counters.get("tx_packets") for h in self.hosts),
            delivered=sum(h.counters.get("rx_packets") for h in self.hosts),
            queue_drops=sum(q.counters.get("drops") for q in self.queues),
            # the builders give every host a NIC
            qdisc_drops=sum(
                h.nic.counters.get("qdisc_drops")  # type: ignore[union-attr]
                for h in self.hosts
            ),
            corrupted=sum(
                link.counters.get("corrupted") for link in self.links
            ),
        )


def _egress_queue(
    config: ConfigT, name: str, discipline: str = "fifo"
) -> DropTailQueue:
    """A switch egress queue: priority, ECN-marking when the config sets
    a threshold, else drop-tail."""
    if discipline == "priority":
        return PriorityQueue(capacity_bytes=config.buffer_bytes, name=name)
    if config.ecn_threshold_bytes is not None:
        return EcnQueue(
            capacity_bytes=config.buffer_bytes,
            mark_threshold_bytes=config.ecn_threshold_bytes,
            name=name,
        )
    return DropTailQueue(capacity_bytes=config.buffer_bytes, name=name)


def _fabric_link(fabric: Fabric, rate_bps: float, name: str, sink) -> Link:
    link = Link(fabric.sim, rate_bps, fabric.config.link_delay_s, name)
    link.connect(sink)
    fabric.links.append(link)
    return link


def _attach_nic(fabric: Fabric, host: Host, interfaces: List[Interface]) -> None:
    config = fabric.config
    host.attach_nic(
        Nic(
            fabric.sim,
            interfaces,
            mtu_bytes=config.mtu_bytes,
            name=f"{host.name}-nic",
        )
    )


def build_testbed(
    sim: Simulator, config: Optional[TestbedConfig] = None
) -> Fabric[TestbedConfig]:
    """Construct the paper's one-switch testbed.

    ``hosts`` are the senders, then the receiver (the counter oracle
    lists them in construction order), so :attr:`Fabric.sender` and
    :attr:`Fabric.receiver` are the dumbbell's ends; the one tier holds
    the switch, and ``bottleneck`` is its port toward the receiver, so
    experiments can inspect queue occupancy, drops and ECN marks. One
    sender host is named ``sender``; with several, host ``h`` is
    ``sender-h`` and its parts' names carry ``h`` too.
    """
    config = config or TestbedConfig()
    switch = Switch(name="tofino")
    tags = [""] if config.sender_hosts == 1 else [
        str(h) for h in range(config.sender_hosts)
    ]
    hosts = [Host(sim, f"sender-{tag}" if tag else "sender") for tag in tags]
    hosts.append(Host(sim, "receiver"))
    testbed = Fabric(
        sim=sim,
        config=config,
        hosts=hosts,
        tiers={"switch": [switch]},
        host_rack={host.name: 0 for host in hosts},
    )
    senders, receiver = hosts[:-1], hosts[-1]
    rate = config.link_rate_bps

    # Sender -> switch: N bonded links per host (packets sprayed round-robin).
    for sender, tag in zip(senders, tags):
        uplinks = []
        for i in range(config.sender_bonded_links):
            link = _fabric_link(testbed, rate, f"snd{tag}-up-{i}", switch)
            queue = DropTailQueue(config.buffer_bytes, name=f"snd{tag}-q-{i}")
            testbed.queues.append(queue)
            uplinks.append(Interface(sim, queue, link, name=f"snd{tag}-if-{i}"))
        _attach_nic(testbed, sender, uplinks)

    # Switch -> receiver: the bottleneck. ECN-capable when configured.
    down_link = _fabric_link(testbed, rate, "sw-down", receiver)
    bottleneck_queue = _egress_queue(
        config, "bottleneck", config.bottleneck_discipline
    )
    testbed.queues.append(bottleneck_queue)
    # The bottleneck queue is the contended resource every figure reads
    # about; give it the telemetry clock so depth/drop series appear in
    # traces (no-op unless a probe sink is installed).
    bottleneck_queue.attach_probe(sim)
    testbed.bottleneck = Interface(
        sim,
        bottleneck_queue,
        down_link,
        name="bottleneck",
        int_telemetry=config.int_telemetry,
    )
    switch.add_port("receiver", testbed.bottleneck)

    # Receiver -> switch (ACK path) and switch -> each sender.
    ack_up_link = _fabric_link(testbed, rate, "rcv-up", switch)
    ack_queue = DropTailQueue(config.buffer_bytes, name="rcv-q")
    testbed.queues.append(ack_queue)
    _attach_nic(
        testbed, receiver, [Interface(sim, ack_queue, ack_up_link, name="rcv-if")]
    )
    for sender, tag in zip(senders, tags):
        link = _fabric_link(testbed, rate, f"sw-up{tag}", sender)
        queue = DropTailQueue(config.buffer_bytes, name=f"sw-snd{tag}-q")
        testbed.queues.append(queue)
        switch.add_port(
            sender.name, Interface(sim, queue, link, name=f"sw-snd{tag}-if")
        )

    return testbed


def _switch_port(
    fabric: Fabric, rate_bps: float, name: str, sink
) -> Interface:
    """A switch egress port: ECN queue + link toward ``sink``."""
    link = _fabric_link(fabric, rate_bps, f"{name}-link", sink)
    queue = _egress_queue(fabric.config, f"{name}-q")
    fabric.queues.append(queue)
    return Interface(
        fabric.sim,
        queue,
        link,
        name=name,
        int_telemetry=fabric.config.int_telemetry,
    )


def _attach_fabric_host(
    fabric: Fabric[FabricConfig], name: str, rack: int, edge_switch: Switch
) -> Host:
    """Create a host, wire its uplink to ``edge_switch`` and register it."""
    rate = fabric.config.host_link_rate_bps
    host = Host(fabric.sim, name)
    up_link = _fabric_link(fabric, rate, f"{name}-up-link", edge_switch)
    up_queue = DropTailQueue(fabric.config.buffer_bytes, name=f"{name}-q")
    fabric.queues.append(up_queue)
    _attach_nic(
        fabric, host, [Interface(fabric.sim, up_queue, up_link, name=f"{name}-if")]
    )
    down = _switch_port(fabric, rate, f"{edge_switch.name}-to-{name}", host)
    edge_switch.add_port(name, down)
    fabric.hosts.append(host)
    fabric.host_rack[name] = rack
    return host


def build_leaf_spine(
    sim: Simulator, config: Optional[FabricConfig] = None
) -> Fabric[FabricConfig]:
    """Construct a two-tier leaf-spine (Clos) fabric.

    Hosts are named ``h{leaf}-{index}``. Each leaf has an exact route
    for its local hosts and a default ECMP group over its spine uplinks
    for everything else; each spine holds an exact per-host route to the
    owning leaf's downlink, so any cross-rack flow takes exactly one of
    ``config.spines`` equal-cost paths, chosen by flow hash at the
    source leaf.
    """
    config = config or FabricConfig()
    leaves = [Switch(name=f"leaf-{i}") for i in range(config.leaves)]
    spines = [Switch(name=f"spine-{i}") for i in range(config.spines)]
    fabric = Fabric(
        sim=sim,
        config=config,
        hosts=[],
        tiers={"leaf": leaves, "spine": spines},
        host_rack={},
    )

    for li, leaf in enumerate(leaves):
        for hi in range(config.hosts_per_leaf):
            _attach_fabric_host(fabric, f"h{li}-{hi}", li, leaf)

    for li, leaf in enumerate(leaves):
        uplinks = []
        for si, spine in enumerate(spines):
            uplinks.append(
                _switch_port(
                    fabric,
                    config.fabric_link_rate_bps,
                    f"leaf-{li}-up-{si}",
                    spine,
                )
            )
            down = _switch_port(
                fabric,
                config.fabric_link_rate_bps,
                f"spine-{si}-down-{li}",
                leaf,
            )
            for host in fabric.rack_hosts(li):
                spine.add_port(host.name, down)
        leaf.set_default_ecmp(uplinks)

    return fabric


def build_fat_tree(
    sim: Simulator, k: int = 4, config: Optional[FabricConfig] = None
) -> Fabric[FabricConfig]:
    """Construct a k-ary fat-tree (Al-Fares et al.) fabric.

    ``k`` pods, each with ``k/2`` edge and ``k/2`` aggregation switches;
    ``(k/2)^2`` core switches; ``k/2`` hosts per edge switch. Hosts are
    named ``h{pod}-{edge}-{index}`` and ``host_rack`` maps to a global
    edge-switch index. Edge switches default-ECMP to their pod's
    aggregation tier; aggregation switches route pod-local racks exactly
    and default-ECMP to their core group; cores hold exact per-host
    routes. ``config.leaves``/``hosts_per_leaf``/``spines`` are ignored
    — the shape is fully determined by ``k``.
    """
    if k < 2 or k % 2 != 0:
        raise NetworkConfigError(f"fat-tree arity must be even and >= 2, got {k}")
    config = config or FabricConfig()
    half = k // 2
    edges = [
        Switch(name=f"edge-{p}-{e}") for p in range(k) for e in range(half)
    ]
    aggs = [
        Switch(name=f"agg-{p}-{a}") for p in range(k) for a in range(half)
    ]
    cores = [Switch(name=f"core-{c}") for c in range(half * half)]
    fabric = Fabric(
        sim=sim,
        config=config,
        hosts=[],
        tiers={"edge": edges, "agg": aggs, "core": cores},
        host_rack={},
    )

    for p in range(k):
        for e in range(half):
            edge = edges[p * half + e]
            for hi in range(half):
                _attach_fabric_host(
                    fabric, f"h{p}-{e}-{hi}", p * half + e, edge
                )

    for p in range(k):
        pod_aggs = aggs[p * half: (p + 1) * half]
        # edge <-> agg, full bipartite inside the pod
        for e in range(half):
            edge = edges[p * half + e]
            rack = p * half + e
            uplinks = []
            for a, agg in enumerate(pod_aggs):
                uplinks.append(
                    _switch_port(
                        fabric,
                        config.fabric_link_rate_bps,
                        f"{edge.name}-up-{a}",
                        agg,
                    )
                )
                down = _switch_port(
                    fabric,
                    config.fabric_link_rate_bps,
                    f"{agg.name}-down-{e}",
                    edge,
                )
                for host in fabric.rack_hosts(rack):
                    agg.add_port(host.name, down)
            edge.set_default_ecmp(uplinks)
        # agg -> core: agg at position a uplinks to its core group
        for a, agg in enumerate(pod_aggs):
            agg.set_default_ecmp(
                [
                    _switch_port(
                        fabric,
                        config.fabric_link_rate_bps,
                        f"{agg.name}-up-{ci}",
                        cores[ci],
                    )
                    for ci in range(a * half, (a + 1) * half)
                ]
            )

    # core -> agg: core c reaches pod p through the pod's agg at
    # position c // half, and routes every host in that pod exactly.
    for c, core in enumerate(cores):
        for p in range(k):
            agg = aggs[p * half + c // half]
            down = _switch_port(
                fabric,
                config.fabric_link_rate_bps,
                f"{core.name}-down-{p}",
                agg,
            )
            for rack in range(p * half, (p + 1) * half):
                for host in fabric.rack_hosts(rack):
                    core.add_port(host.name, down)

    return fabric
