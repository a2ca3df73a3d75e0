"""Energy substrate: calibrated power model, CPU accounting, RAPL emulation."""

from __future__ import annotations

from repro.energy.cpu import CpuModel, CpuPackage
from repro.energy.fleet import (
    FleetEnergyReport,
    SwitchEnergyReading,
    fleet_energy_report,
    measure_switch_energy,
    port_utilization,
)
from repro.energy.meter import EnergyMeter
from repro.energy.power_model import IntervalActivity, PowerModel
from repro.energy.rapl import RaplDomain, RaplReader, energy_delta_j
from repro.energy.switch_power import (
    SwitchPowerModel,
    rate_adaptive_switch,
    todays_switch,
)

__all__ = [
    "FleetEnergyReport",
    "SwitchEnergyReading",
    "fleet_energy_report",
    "measure_switch_energy",
    "port_utilization",
    "SwitchPowerModel",
    "todays_switch",
    "rate_adaptive_switch",
    "PowerModel",
    "IntervalActivity",
    "CpuModel",
    "CpuPackage",
    "EnergyMeter",
    "RaplDomain",
    "RaplReader",
    "energy_delta_j",
]
