"""Unit tests for the RAPL counter emulation (wrap-around included)."""

import pytest

from repro.energy import calibration as cal
from repro.energy.cpu import CpuModel, CpuPackage
from repro.energy.power_model import PowerModel
from repro.energy.rapl import RaplDomain, RaplReader, energy_delta_j
from repro.errors import EnergyModelError
from repro.net.host import Host

#: 2^32 units of 2^-16 J: the energy at which the counter wraps
WRAP_J = 65536.0


@pytest.fixture
def package(sim):
    return CpuPackage("pkg0", PowerModel(), sim)


class TestRaplDomain:
    def test_counter_quantized_to_unit(self, sim, package):
        package.energy_j = 10.0
        domain = RaplDomain(package)
        expected_units = int(10.0 / cal.RAPL_ENERGY_UNIT_J)
        assert domain.read_counter() == expected_units

    def test_counter_wraps_at_32_bits(self, sim, package):
        domain = RaplDomain(package)
        package.energy_j = WRAP_J + 5.0
        counter = domain.read_counter()
        assert counter == int(5.0 / cal.RAPL_ENERGY_UNIT_J)

    def test_wrap_joules_magnitude(self, sim, package):
        """2^32 * 2^-16 J = 65536 J — about half an hour at full load."""
        domain = RaplDomain(package)
        package.energy_j = WRAP_J - cal.RAPL_ENERGY_UNIT_J
        assert domain.read_counter() == domain.counter_mask
        package.energy_j = WRAP_J
        assert domain.read_counter() == 0

    def test_read_flushes_accounting(self, sim, package):
        domain = RaplDomain(package)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert domain.read_counter() > 0  # idle power integrated on read

    def test_invalid_unit_rejected(self, sim, package):
        with pytest.raises(EnergyModelError):
            RaplDomain(package, energy_unit_j=0.0)


class TestWrapCorrection:
    def test_simple_delta(self, sim, package):
        domain = RaplDomain(package)
        assert energy_delta_j(100, 300, domain) == pytest.approx(
            200 * cal.RAPL_ENERGY_UNIT_J
        )

    def test_single_wrap_corrected(self, sim, package):
        domain = RaplDomain(package)
        near_top = domain.counter_mask - 10
        delta = energy_delta_j(near_top, 20, domain)
        assert delta == pytest.approx(31 * cal.RAPL_ENERGY_UNIT_J)

    def test_measurement_across_wrap(self, sim, package):
        """A before/after measurement spanning one wrap stays correct."""
        domain = RaplDomain(package)
        package.energy_j = WRAP_J - 1.0
        before = domain.read_counter()
        package.energy_j = WRAP_J + 1.0
        after = domain.read_counter()
        assert energy_delta_j(before, after, domain) == pytest.approx(
            2.0, rel=1e-3
        )


class TestRaplReader:
    def test_reader_covers_all_packages(self, sim):
        host = Host(sim, "h")
        cpu = CpuModel(sim, host, packages=2)
        reader = RaplReader.for_cpu_models([cpu])
        snapshot = reader.read_all()
        assert set(snapshot) == {"h-pkg0", "h-pkg1"}

    def test_joules_since(self, sim):
        host = Host(sim, "h")
        cpu = CpuModel(sim, host, packages=2)
        reader = RaplReader.for_cpu_models([cpu])
        before = reader.read_all()
        sim.schedule(1.0, lambda: None)
        sim.run()
        joules = reader.joules_since(before)
        assert joules == pytest.approx(2 * cal.P_IDLE_W, rel=0.01)

    def test_empty_reader_rejected(self):
        with pytest.raises(EnergyModelError):
            RaplReader([])

    def test_reader_package_only_by_default(self, sim):
        cpu = CpuModel(sim, Host(sim, "h"), packages=1)
        reader = RaplReader.for_cpu_models([cpu])
        assert set(reader.read_all()) == {"h-pkg0"}

    def test_paper_measurement_unaffected(self, sim):
        """The metered package energy of a flow capped at half rate sits
        on the paper's half-rate anchor."""
        from repro.harness.experiment import FlowSpec, Scenario
        from repro.harness.runner import run_once

        m = run_once(
            Scenario(
                "anchor",
                flows=[FlowSpec(5_000_000, cca="cubic", target_rate_bps=5e9)],
                packages=1,
                power_noise_sigma=0.0,
            )
        )
        assert m.average_power_w == pytest.approx(cal.P_HALF_RATE_W, rel=0.03)
