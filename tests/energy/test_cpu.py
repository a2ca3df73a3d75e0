"""Unit tests for CPU package accounting and flow pinning."""

import random

import pytest

from repro.energy import calibration as cal
from repro.energy.cpu import CpuModel, CpuPackage
from repro.energy.power_model import PowerModel
from repro.errors import EnergyModelError, NetworkConfigError
from repro.net.host import Host
from repro.net.link import Interface, Link
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.sim.probe import POWER_CHANNEL, TimeSeriesProbeSink


class Discard:
    def receive(self, packet):
        pass


@pytest.fixture
def host(sim):
    host = Host(sim, "h")
    link = Link(sim, 10e9, 0.0)
    link.connect(Discard())
    host.attach_nic(Nic(sim, [Interface(sim, DropTailQueue(1_000_000), link)]))
    return host


@pytest.fixture
def cpu(sim, host):
    return CpuModel(sim, host, packages=2)


def packet(flow, payload=1000, retransmitted=False):
    return Packet(
        flow_id=flow, src="a", dst="b", payload_bytes=payload,
        retransmitted=retransmitted,
    )


class TestPackageIntegration:
    def test_idle_energy_is_idle_power_times_time(self, sim):
        pkg = CpuPackage("p", PowerModel(), sim)
        sim.schedule(1.0, lambda: None)
        sim.run()
        pkg.flush()
        assert pkg.energy_j == pytest.approx(cal.P_IDLE_W * 1.0)

    def test_flush_without_time_is_noop(self, sim):
        pkg = CpuPackage("p", PowerModel(), sim)
        pkg.flush()
        assert pkg.energy_j == 0.0

    def test_activity_raises_power(self, sim):
        pkg = CpuPackage("p", PowerModel(), sim)
        # 5 Gb/s worth of bytes over 1 virtual second
        pkg.wire_bytes = int(5e9 / 8)
        sim.schedule(1.0, lambda: None)
        sim.run()
        pkg.flush()
        assert pkg.energy_j > cal.P_HALF_RATE_W * 0.9

    def test_background_load_change_flushes(self, sim):
        pkg = CpuPackage("p", PowerModel(), sim)
        sim.schedule(1.0, lambda: None)
        sim.run()
        pkg.set_background_load(0.5)
        # first second accounted at idle
        assert pkg.energy_j == pytest.approx(cal.P_IDLE_W, rel=0.01)

    def test_invalid_load_rejected(self, sim):
        pkg = CpuPackage("p", PowerModel(), sim)
        with pytest.raises(EnergyModelError):
            pkg.set_background_load(1.5)

    def test_noise_perturbs_energy(self, sim):
        energies = []
        for seed in (1, 2):
            from repro.sim.engine import Simulator

            local = Simulator()
            pkg = CpuPackage("p", PowerModel(), local)
            pkg.noise_rng = random.Random(seed)
            pkg.noise_sigma = 0.01
            local.schedule(1.0, lambda: None)
            local.run()
            pkg.flush()
            energies.append(pkg.energy_j)
        assert energies[0] != energies[1]


class TestFlowPinning:
    def test_explicit_pin(self, sim, host, cpu):
        cpu.pin_flow(7, 1)
        assert cpu.package_for(7) is cpu.packages[1]

    def test_auto_pin_round_robin(self, sim, host, cpu):
        first = cpu.package_for(100)
        second = cpu.package_for(200)
        assert first is not second
        assert cpu.package_for(100) is first  # stable

    def test_events_charge_pinned_package(self, sim, host, cpu):
        cpu.pin_flow(1, 0)
        cpu.pin_flow(2, 1)
        host.receive(packet(1))
        host.receive(packet(2))
        host.send(packet(2))
        assert cpu.packages[0].packet_events == 1
        assert cpu.packages[1].packet_events == 2
        assert cpu.packages[1].wire_bytes == 2 * packet(2).wire_bytes

    def test_cc_ops_follow_flow(self, sim, host, cpu):
        cpu.pin_flow(5, 1)
        host.notify_cc_op(2.0, flow_id=5)
        assert cpu.packages[1].cc_units == 2.0
        assert cpu.packages[0].cc_units == 0.0

    def test_retransmissions_counted(self, sim, host, cpu):
        cpu.pin_flow(5, 0)
        host.send(packet(5, retransmitted=True))
        assert cpu.packages[0].retransmissions == 1
        assert cpu.packages[0].packet_events == 1

    def test_first_sight_pins_round_robin(self, sim, host, cpu):
        host.notify_cc_op(1.0, flow_id=10)
        host.receive(packet(20))
        host.send(packet(10))
        assert cpu.package_for(10) is cpu.packages[0]
        assert cpu.package_for(20) is cpu.packages[1]
        assert cpu.packages[0].packet_events == 1
        assert cpu.packages[0].cc_units == 1.0

    def test_pin_after_traffic_reroutes_later_charges(self, sim, host, cpu):
        host.send(packet(1))  # auto-pinned to package 0
        host.notify_cc_op(1.0, flow_id=1)
        cpu.pin_flow(1, 1)
        host.send(packet(1, retransmitted=True))
        host.receive(packet(1))
        host.notify_cc_op(2.0, flow_id=1)
        first, second = cpu.packages
        assert (first.packet_events, first.retransmissions, first.cc_units) == (
            1, 0, 1.0
        )
        assert (second.packet_events, second.retransmissions, second.cc_units) == (
            2, 1, 2.0
        )


class TestLifecycle:
    def test_total_energy_sums_packages(self, sim, host, cpu):
        cpu.start()
        sim.schedule(0.5, lambda: None)
        sim.run(until=0.5)
        cpu.stop()
        assert cpu.total_energy_j == pytest.approx(
            2 * cal.P_IDLE_W * 0.5, rel=0.01
        )

    def test_sampler_records_power_series(self, sim, host):
        # a run's power series is its power_w telemetry
        sim.probe_sink = sink = TimeSeriesProbeSink()
        cpu = CpuModel(sim, host, packages=1, sample_interval_s=0.1)
        cpu.start()
        sim.run(until=1.0)
        cpu.stop()
        series = sink.series(POWER_CHANNEL, "h-pkg0")
        assert len(series) >= 9
        assert series.values[0] == pytest.approx(cal.P_IDLE_W, rel=0.01)

    def test_package_emits_one_power_sample_per_flush(self, sim):
        sim.probe_sink = sink = TimeSeriesProbeSink()
        package = CpuPackage("p", PowerModel(), sim)
        for instant in (0.25, 0.5, 1.0):
            sim.schedule_at(instant, package.flush)
            # an empty interval: no flush, no sample
            sim.schedule_at(instant, package.flush)
        sim.run()
        series = sink.series(POWER_CHANNEL, "p")
        assert series.times == [0.25, 0.5, 1.0]
        assert series.values == pytest.approx([cal.P_IDLE_W] * 3)
        assert [key for key, _series in sink.items()] == [(POWER_CHANNEL, "p")]

    def test_needs_at_least_one_package(self, sim, host):
        with pytest.raises(EnergyModelError):
            CpuModel(sim, host, packages=0)

    def test_listener_attached_to_host(self, sim):
        host = Host(sim, "x")
        cpu = CpuModel(sim, host, packages=1)
        host.receive(packet(9))
        assert cpu.packages[0].packet_events == 1

    def test_a_second_model_on_one_host_is_rejected(self, sim, host, cpu):
        # one accountant per host: a second would silently see nothing
        with pytest.raises(NetworkConfigError):
            CpuModel(sim, host, packages=1)
