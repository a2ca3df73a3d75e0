"""The link testbed's packet ledger, pinned on four shapes.

Each shape runs through the link prepare step until every flow is
complete, then the simulator drains. By then every packet a host sent
was delivered, dropped by a queue or a host qdisc, or corrupted on a
wire: the ledger's residual is 0, and each of its five terms is pinned,
with the number of queues and links it sums over. The testbed is a
one-switch :class:`~repro.net.topology.Fabric`, so its ledger is the one
:meth:`~repro.net.topology.Fabric.conservation` every fabric has.
"""

import random

import pytest

from repro.apps.iperf import drive_until_complete
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import _prepare_link
from repro.net.topology import ConservationLedger
from repro.sim.engine import Simulator

LOSSY_CCAS = (
    "cubic", "reno", "bbr", "bbr2", "vegas", "westwood", "highspeed", "scalable",
)

#: name -> (scenario, bottleneck loss rate, expected ledger, queues, links)
SHAPES = {
    # eight CCAs through a five-packet drop-tail buffer (bench's lossy_mix)
    "lossy_mix": (
        Scenario(
            "lossy_mix",
            mtu_bytes=9000,
            buffer_bytes=45_000,
            ecn_threshold_bytes=None,
            start_jitter_s=0.0,
            flows=[FlowSpec(500_000, cca=cca) for cca in LOSSY_CCAS],
        ),
        0.0,
        ConservationLedger(
            sent=991, delivered=843, queue_drops=148, qdisc_drops=0,
            corrupted=0,
        ),
        5,
        5,
    ),
    "cubic_corrupting_bottleneck": (
        Scenario("cubic_lossy", flows=[FlowSpec(2_000_000)]),
        0.01,
        ConservationLedger(
            sent=371, delivered=368, queue_drops=0, qdisc_drops=0,
            corrupted=3,
        ),
        5,
        5,
    ),
    "incast_3_senders": (
        Scenario(
            "incast",
            buffer_bytes=30_000,
            ecn_threshold_bytes=None,
            flows=[FlowSpec(500_000, sender_host=h) for h in range(3)],
        ),
        0.0,
        ConservationLedger(
            sent=369, delivered=337, queue_drops=32, qdisc_drops=0,
            corrupted=0,
        ),
        11,
        11,
    ),
    "bbr_cubic_mtu1500": (
        Scenario(
            "bbr_cubic",
            mtu_bytes=1500,
            flows=[FlowSpec(1_000_000, cca="bbr"), FlowSpec(1_000_000)],
        ),
        0.0,
        ConservationLedger(
            sent=2056, delivered=2056, queue_drops=0, qdisc_drops=0,
            corrupted=0,
        ),
        5,
        5,
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_link_ledger_balances_after_drain(shape):
    scenario, loss_rate, expected, queues, links = SHAPES[shape]
    sim = Simulator()
    prepared = _prepare_link(scenario, sim, seed=0)
    if loss_rate:
        link = prepared.testbed.bottleneck.link
        link.loss_rate = loss_rate
        link.loss_rng = random.Random(0)
    prepared.meter.start()
    drive_until_complete(
        sim, prepared.sessions, scenario.time_limit_s, scenario.name
    )
    prepared.meter.stop()
    sim.run()
    testbed = prepared.testbed
    assert testbed.conservation() == expected
    assert (len(testbed.queues), len(testbed.links)) == (queues, links)
    assert expected.residual == 0
