"""Fleet-level energy accounting for multi-switch fabrics.

The paper's §4.2 extrapolates a two-server testbed saving to "$10M/year
for a large data center" — a fleet-level claim. This module produces the
fleet-level number from a simulated fabric: per-port utilizations are
read off the link byte counters a run leaves behind, turned into
per-switch power via :class:`~repro.energy.switch_power.SwitchPowerModel`,
integrated over the run's makespan, and summed with the host CPU energy
the :class:`~repro.energy.meter.EnergyMeter` integrated during the run.

Utilization here is the busy fraction of the measurement window:
``tx_bytes * 8 / rate / duration``, mean utilization rather than an
instantaneous series. For load-independent hardware (the default,
matching [21, 32]) the distinction is irrelevant — power is constant —
and for the rate-adaptive model it is exact when gamma == 1 because the
proportional term is linear in utilization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.energy.switch_power import SwitchPowerModel, todays_switch
from repro.errors import EnergyModelError
from repro.net.switch import Switch
from repro.units import BITS_PER_BYTE


@dataclass
class SwitchEnergyReading:
    """One switch's contribution over the measurement window."""

    name: str
    power_w: float
    energy_j: float
    port_utilizations: List[float] = field(default_factory=list)


@dataclass
class FleetEnergyReport:
    """Fabric-wide energy split: hosts + every switch, over one window."""

    duration_s: float
    host_energy_j: float
    switch_readings: List[SwitchEnergyReading] = field(default_factory=list)

    @property
    def switch_energy_j(self) -> float:
        return sum(r.energy_j for r in self.switch_readings)

    @property
    def total_energy_j(self) -> float:
        return self.host_energy_j + self.switch_energy_j


def port_utilization(
    tx_bytes: float, rate_bps: float, duration_s: float
) -> float:
    """Busy fraction of a port over a window (clamped to 1.0).

    The clamp absorbs edge effects: a packet whose serialization began
    inside the window but ended after it counts its full wire bytes.
    """
    if duration_s <= 0:
        raise EnergyModelError(f"duration must be > 0, got {duration_s}")
    if rate_bps <= 0:
        raise EnergyModelError(f"rate must be > 0, got {rate_bps}")
    return min(1.0, tx_bytes * BITS_PER_BYTE / rate_bps / duration_s)


def measure_switch_energy(
    switch: Switch,
    duration_s: float,
    model: Optional[SwitchPowerModel] = None,
) -> SwitchEnergyReading:
    """One switch's power/energy from its egress-port byte counters."""
    model = model or todays_switch()
    utils = [
        port_utilization(
            port.link.counters.get("tx_bytes"),
            port.link.rate_bps,
            duration_s,
        )
        for port in switch.ports()
    ]
    power_w = model.total_power_w(utils)
    return SwitchEnergyReading(
        name=switch.name,
        power_w=power_w,
        energy_j=power_w * duration_s,
        port_utilizations=utils,
    )


def fleet_energy_report(
    switches: List[Switch],
    duration_s: float,
    host_energy_j: float,
    model: Optional[SwitchPowerModel] = None,
) -> FleetEnergyReport:
    """Aggregate host CPU energy and per-switch energy to fleet level."""
    model = model or todays_switch()
    return FleetEnergyReport(
        duration_s=duration_s,
        host_energy_j=host_energy_j,
        switch_readings=[
            measure_switch_energy(sw, duration_s, model) for sw in switches
        ],
    )
