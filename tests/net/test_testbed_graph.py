"""The object graph ``build_testbed`` returns, pinned part by part.

Every figure's numbers rest on this one dumbbell: a sender host with
bonded uplinks, the switch's ECN bottleneck toward the receiver and the
ACK path back. Each host, NIC, interface, link and queue is pinned here
by name, class, rate, delay and capacity or mark threshold, with the
order of each NIC's interfaces and the switch's routes in insertion
order. A change to how the testbed is built must leave these tables
unchanged: the simulation's event order follows the graph, so a
renamed, reordered or resized part can move every measurement.
"""

import pytest

from repro.net.packet import Packet
from repro.net.queue import EcnQueue
from repro.net.topology import TestbedConfig, build_testbed


def _queue(queue):
    threshold = (
        queue.mark_threshold_bytes if isinstance(queue, EcnQueue) else None
    )
    return (type(queue).__name__, queue.name, queue.capacity_bytes, threshold)


def _interface(interface, sim):
    link = interface.link
    return (
        type(interface).__name__,
        interface.name,
        interface.int_telemetry,
        _queue(interface.queue),
        interface.queue._probe_sim is sim,
        (type(link).__name__, link.name, link.rate_bps, link.delay_s),
        (type(link.sink).__name__, link.sink.name),
    )


def _host(host, sim):
    nic = host.nic
    return (
        type(host).__name__,
        host.name,
        (type(nic).__name__, nic.name, nic.mtu_bytes, nic.tx_packet_gap_s),
        [_interface(interface, sim) for interface in nic.interfaces],
    )


def describe(testbed):
    """The testbed as nested tuples: hosts, then the switch's routes."""
    sim = testbed.sim
    switch = testbed.switches[0]
    assert switch.port_for_packet(Packet(0, "sender", "receiver")) is testbed.bottleneck
    return {
        "sender": _host(testbed.sender, sim),
        "receiver": _host(testbed.receiver, sim),
        "switch": (type(switch).__name__, switch.name),
        "routes": [
            (dst, _interface(interface, sim))
            for dst, interface in switch._ports.items()
        ],
    }


GBPS_10 = 10_000_000_000.0
DELAY = 1e-05
BUFFER = 2 * 1024 * 1024
GAP = 2.35e-06


def _uplink(i):
    return (
        "Interface", f"snd-if-{i}", False,
        ("DropTailQueue", f"snd-q-{i}", BUFFER, None), False,
        ("Link", f"snd-up-{i}", GBPS_10, DELAY),
        ("Switch", "tofino"),
    )


SENDER = (
    "Host", "sender", ("Nic", "sender-nic", 9000, GAP),
    [_uplink(0), _uplink(1)],
)

RECEIVER = (
    "Host", "receiver", ("Nic", "receiver-nic", 9000, GAP),
    [
        (
            "Interface", "rcv-if", False,
            ("DropTailQueue", "rcv-q", BUFFER, None), False,
            ("Link", "rcv-up", GBPS_10, DELAY),
            ("Switch", "tofino"),
        ),
    ],
)

TO_SENDER = (
    "sender",
    (
        "Interface", "sw-snd-if", False,
        ("DropTailQueue", "sw-snd-q", BUFFER, None), False,
        ("Link", "sw-up", GBPS_10, DELAY),
        ("Host", "sender"),
    ),
)


def _bottleneck(queue, int_telemetry=False):
    return (
        "receiver",
        (
            "Interface", "bottleneck", int_telemetry, queue, True,
            ("Link", "sw-down", GBPS_10, DELAY),
            ("Host", "receiver"),
        ),
    )


ECN_BOTTLENECK = ("EcnQueue", "bottleneck", BUFFER, 100 * 1024)

EXPECTED = {
    "default": {
        "sender": SENDER,
        "receiver": RECEIVER,
        "switch": ("Switch", "tofino"),
        "routes": [_bottleneck(ECN_BOTTLENECK), TO_SENDER],
    },
    "priority": {
        "sender": SENDER,
        "receiver": RECEIVER,
        "switch": ("Switch", "tofino"),
        "routes": [
            _bottleneck(("PriorityQueue", "bottleneck", BUFFER, None)),
            TO_SENDER,
        ],
    },
    "int": {
        "sender": SENDER,
        "receiver": RECEIVER,
        "switch": ("Switch", "tofino"),
        "routes": [
            _bottleneck(ECN_BOTTLENECK, int_telemetry=True), TO_SENDER,
        ],
    },
}

CONFIGS = {
    "default": TestbedConfig(),
    "priority": TestbedConfig(bottleneck_discipline="priority"),
    "int": TestbedConfig(int_telemetry=True),
}


@pytest.mark.parametrize("variant", sorted(CONFIGS))
def test_graph_matches_pin(sim, variant):
    assert describe(build_testbed(sim, CONFIGS[variant])) == EXPECTED[variant]

