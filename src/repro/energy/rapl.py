"""Intel RAPL (Running Average Power Limit) interface emulation.

The paper measures energy via RAPL's per-package energy-status counters:
read the counter before and after the experiment, subtract, multiply by
the energy unit. We emulate that interface faithfully, including its
sharp edges:

* the counter is a **32-bit register that wraps** (at the default
  2^-16 J unit that's every ~65.5 kJ — about half an hour at full load,
  so real measurement scripts must handle wrap, and so does ours);
* readings are quantized to the energy unit;
* the counter is monotonically increasing between wraps and per-package.

:class:`RaplDomain` wraps one :class:`~repro.energy.cpu.CpuPackage`;
:func:`energy_delta_j` implements the standard single-wrap correction.
"""

from __future__ import annotations

from typing import Dict, List

from repro.energy import calibration as cal
from repro.energy.cpu import CpuModel, CpuPackage
from repro.errors import EnergyModelError


class RaplDomain:
    """One emulated package energy-status register
    (MSR_PKG_ENERGY_STATUS, the paper's measurement)."""

    def __init__(
        self,
        package: CpuPackage,
        energy_unit_j: float = cal.RAPL_ENERGY_UNIT_J,
        counter_bits: int = cal.RAPL_COUNTER_BITS,
    ):
        if energy_unit_j <= 0:
            raise EnergyModelError(f"energy unit must be > 0, got {energy_unit_j}")
        self.package = package
        self.energy_unit_j = energy_unit_j
        self.counter_mask = (1 << counter_bits) - 1

    @property
    def name(self) -> str:
        """Domain name: the package's, e.g. ``sender-pkg0``."""
        return self.package.name

    def read_counter(self) -> int:
        """Read the raw 32-bit energy-status counter (flushes accounting)."""
        self.package.flush()
        units = int(self.package.energy_j / self.energy_unit_j)
        return units & self.counter_mask


def energy_delta_j(
    before: int, after: int, domain: RaplDomain
) -> float:
    """Energy between two raw counter reads, correcting one wrap."""
    delta_units = after - before
    if delta_units < 0:
        delta_units += domain.counter_mask + 1
    return delta_units * domain.energy_unit_j


class RaplReader:
    """Reads all packages of one or more hosts, like ``powercap`` sysfs.

    >>> reader = RaplReader.for_cpu_models([sender_cpu, receiver_cpu])
    >>> before = reader.read_all()
    >>> ... run experiment ...
    >>> joules = reader.joules_since(before)
    """

    def __init__(self, domains: List[RaplDomain]):
        if not domains:
            raise EnergyModelError("RaplReader needs at least one domain")
        self.domains = domains

    @classmethod
    def for_cpu_models(cls, cpu_models: List[CpuModel]) -> "RaplReader":
        """Build a reader covering every package of the given CPU models."""
        return cls(
            [RaplDomain(pkg) for model in cpu_models for pkg in model.packages]
        )

    def read_all(self) -> Dict[str, int]:
        """Raw counter per domain name."""
        return {d.name: d.read_counter() for d in self.domains}

    def joules_since(self, before: Dict[str, int]) -> float:
        """Total energy across domains since the ``before`` snapshot."""
        total = 0.0
        for domain in self.domains:
            after = domain.read_counter()
            total += energy_delta_j(before[domain.name], after, domain)
        return total
