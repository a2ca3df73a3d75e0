"""Experiment energy metering: the paper's read-before/read-after loop.

§3: "For each scenario, we read the energy counter for each CPU before
and after the experiment. The difference between the successive counter
reads gives us the energy used by the scenario for that CPU."

:class:`EnergyMeter` packages that discipline: construct it over the CPU
models you care about (typically just the sender's, matching the paper's
per-flow power arithmetic), call :meth:`start` when the measured window
opens and :meth:`stop` when it closes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.energy.cpu import CpuModel
from repro.energy.rapl import RaplReader
from repro.errors import EnergyModelError
from repro.sim.engine import Simulator
from repro.sim.probe import ENERGY_CHANNEL


class EnergyMeter:
    """Measures energy over a window of virtual time via emulated RAPL."""

    def __init__(self, sim: Simulator, cpu_models: List[CpuModel]):
        if not cpu_models:
            raise EnergyModelError("EnergyMeter needs at least one CpuModel")
        self.sim = sim
        self.cpu_models = cpu_models
        self.reader = RaplReader.for_cpu_models(cpu_models)
        self._before: Optional[Dict[str, int]] = None
        self._start_time: Optional[float] = None
        self._energy_j: Optional[float] = None
        self._stop_time: Optional[float] = None

    def start(self) -> None:
        """Open the measurement window (starts CPU sampling)."""
        for model in self.cpu_models:
            model.start()
        self._before = self.reader.read_all()
        self._start_time = self.sim.now
        self._energy_j = None
        self._stop_time = None

    def stop(self) -> float:
        """Close the window; returns joules consumed inside it."""
        if self._before is None:
            raise EnergyModelError("stop() before start()")
        self._energy_j = self.reader.joules_since(self._before)
        self._stop_time = self.sim.now
        for model in self.cpu_models:
            model.stop()
        sink = self.sim.probe_sink
        if sink.enabled:
            # One sample per measurement window: the metered joules at
            # window close, alongside the per-package ``power_w`` stream
            # the CPU models emit at every flush.
            sink.sample(self.sim.now, ENERGY_CHANNEL, "meter", self._energy_j)
        return self._energy_j

    @property
    def energy_j(self) -> float:
        """Measured energy (valid after :meth:`stop`)."""
        if self._energy_j is None:
            raise EnergyModelError("meter not stopped yet")
        return self._energy_j

    @property
    def duration_s(self) -> float:
        """Length of the measurement window."""
        if self._start_time is None or self._stop_time is None:
            raise EnergyModelError("meter window not complete")
        return self._stop_time - self._start_time

    @property
    def average_power_w(self) -> float:
        """Energy / duration over the window."""
        duration = self.duration_s
        if duration <= 0:
            raise EnergyModelError("zero-length measurement window")
        return self.energy_j / duration
