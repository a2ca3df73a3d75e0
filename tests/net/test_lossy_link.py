"""Failure injection: TCP robustness over randomly lossy links."""

import random

import pytest

from repro.apps.iperf import IperfSession, run_until_complete
from repro.errors import NetworkConfigError
from repro.net.link import Interface, Link
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.net.topology import TestbedConfig, build_testbed
from repro.sim.engine import Simulator
from repro.units import gbps


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def transmit(sim, link, packets):
    """Clock ``packets`` small frames onto ``link`` through an interface."""
    iface = Interface(sim, DropTailQueue(packets * 200), link)
    for _ in range(packets):
        assert iface.enqueue(
            Packet(flow_id=1, src="a", dst="b", payload_bytes=100)
        )
    sim.run()


class TestLossyLinkUnit:
    def test_loss_rate_validation(self, sim):
        with pytest.raises(NetworkConfigError):
            Link(sim, gbps(10), 0.0, loss_rate=1.0, loss_rng=random.Random(0))

    def test_needs_rng(self, sim):
        with pytest.raises(NetworkConfigError):
            Link(sim, gbps(10), 0.0, loss_rate=0.1)

    def test_drops_roughly_at_rate(self, sim):
        link = Link(
            sim, gbps(10), 0.0, loss_rate=0.3, loss_rng=random.Random(42)
        )
        sink = Sink()
        link.connect(sink)
        transmit(sim, link, 1000)
        delivered = len(sink.received)
        assert 600 <= delivered <= 800  # ~70% of 1000
        assert link.counters.get("corrupted") == 1000 - delivered

    def test_zero_loss_by_default(self, sim):
        link = Link(sim, gbps(10), 0.0)
        sink = Sink()
        link.connect(sink)
        transmit(sim, link, 100)
        assert len(sink.received) == 100


def lossy_testbed(loss_rate, seed=0):
    """A testbed whose bottleneck link randomly corrupts frames."""
    sim = Simulator()
    testbed = build_testbed(sim, TestbedConfig())
    testbed.bottleneck.link.loss_rate = loss_rate
    testbed.bottleneck.link.loss_rng = random.Random(seed)
    return sim, testbed


class TestTcpUnderRandomLoss:
    @pytest.mark.parametrize("loss_rate", [0.001, 0.01])
    def test_cubic_completes_despite_corruption(self, loss_rate):
        sim, testbed = lossy_testbed(loss_rate)
        session = IperfSession(testbed, total_bytes=5_000_000, cca="cubic")
        result = run_until_complete(testbed, [session], time_limit_s=120)[0]
        assert result.bytes_transferred == 5_000_000
        assert session.receiver.bytes_received == 5_000_000
        assert result.retransmissions > 0

    def test_heavier_loss_hurts_throughput(self):
        rates = {}
        for loss in (0.0, 0.02):
            sim, testbed = lossy_testbed(loss, seed=3)
            session = IperfSession(testbed, total_bytes=5_000_000, cca="cubic")
            result = run_until_complete(
                testbed, [session], time_limit_s=120
            )[0]
            rates[loss] = result.mean_throughput_bps
        assert rates[0.02] < rates[0.0]

    def test_loss_costs_energy(self):
        """Random corruption lengthens the transfer and burns energy."""
        from repro.energy.cpu import CpuModel
        from repro.energy.meter import EnergyMeter

        energies = {}
        for loss in (0.0, 0.02):
            sim, testbed = lossy_testbed(loss, seed=5)
            cpu = CpuModel(sim, testbed.sender, packages=1)
            meter = EnergyMeter(sim, [cpu])
            session = IperfSession(testbed, total_bytes=5_000_000, cca="cubic")
            meter.start()
            run_until_complete(testbed, [session], time_limit_s=120)
            energies[loss] = meter.stop()
        assert energies[0.02] > energies[0.0]

    def test_bbr_tolerates_random_loss_better_than_reno(self):
        """BBR's loss-blindness is an advantage under corruption."""
        durations = {}
        for cca in ("bbr", "reno"):
            sim, testbed = lossy_testbed(0.01, seed=7)
            session = IperfSession(testbed, total_bytes=5_000_000, cca=cca)
            durations[cca] = run_until_complete(
                testbed, [session], time_limit_s=120
            )[0].duration_s
        assert durations["bbr"] <= durations["reno"] * 1.05
