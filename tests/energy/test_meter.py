"""Unit tests for the before/after energy meter."""

import pytest

from repro.energy import calibration as cal
from repro.energy.cpu import CpuModel
from repro.energy.meter import EnergyMeter
from repro.errors import EnergyModelError
from repro.net.host import Host


@pytest.fixture
def cpu(sim):
    return CpuModel(sim, Host(sim, "h"), packages=1)


class TestMeasurementWindow:
    def test_idle_window(self, sim, cpu):
        meter = EnergyMeter(sim, [cpu])
        meter.start()
        sim.run(until=2.0)
        energy = meter.stop()
        assert energy == pytest.approx(2 * cal.P_IDLE_W, rel=0.01)
        assert meter.duration_s == pytest.approx(2.0)
        assert meter.average_power_w == pytest.approx(cal.P_IDLE_W, rel=0.01)

    def test_stop_before_start_rejected(self, sim, cpu):
        with pytest.raises(EnergyModelError):
            EnergyMeter(sim, [cpu]).stop()

    def test_energy_before_stop_rejected(self, sim, cpu):
        meter = EnergyMeter(sim, [cpu])
        meter.start()
        with pytest.raises(EnergyModelError):
            _ = meter.energy_j

    def test_window_excludes_prior_energy(self, sim, cpu):
        # burn a second before the window opens
        cpu.start()
        sim.run(until=1.0)
        cpu.stop()
        meter = EnergyMeter(sim, [cpu])
        meter.start()
        sim.run(until=1.5)
        assert meter.stop() == pytest.approx(0.5 * cal.P_IDLE_W, rel=0.01)

    def test_restartable(self, sim, cpu):
        meter = EnergyMeter(sim, [cpu])
        meter.start()
        sim.run(until=1.0)
        first = meter.stop()
        meter.start()
        sim.run(until=3.0)
        second = meter.stop()
        assert second == pytest.approx(2 * first, rel=0.02)

    def test_needs_cpu_models(self, sim):
        with pytest.raises(EnergyModelError):
            EnergyMeter(sim, [])
