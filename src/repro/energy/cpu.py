"""CPU package accounting: turn a host's stack work into energy.

The testbed servers have two CPU packages; RAPL reports energy per
package, and the paper's per-flow power arithmetic (§4.1: 34.23 W *per
flow*) corresponds to each flow's processing landing on its own package.
:class:`CpuModel` reproduces that: it is its host's listener, so the
host asks it once per flow which :class:`CpuPackage` the flow is pinned
to and from then on adds the flow's wire bytes, packet events,
retransmissions and congestion-control cost to that package itself;
the model integrates the :class:`~repro.energy.power_model.PowerModel`
over virtual time.

Integration is flush-based: activity accumulates between flushes and the
model converts each interval's average rates to watts. A periodic sampler
(default 5 ms) bounds interval length so rate changes (e.g. the
full-speed-then-idle phase switch) are resolved; RAPL reads force a flush
so measurement windows are exact.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.energy.power_model import IntervalActivity, PowerModel
from repro.errors import EnergyModelError
from repro.net.host import FlowTally, Host, HostListener
from repro.sim.engine import Simulator
from repro.sim.probe import POWER_CHANNEL
from repro.sim.timer import PeriodicTimer
from repro.units import msec

DEFAULT_SAMPLE_INTERVAL_S = msec(5.0)


class CpuPackage(FlowTally):
    """One physical CPU package with its own power curve and RAPL domain.

    As a :class:`~repro.net.host.FlowTally` it holds the open interval's
    activity, which the host adds every packet and charge of the flows
    pinned here to, in place.
    """

    def __init__(self, name: str, model: PowerModel, sim: Simulator):
        super().__init__()
        self.name = name
        self.model = model
        self.sim = sim
        #: optional measurement-noise source: each flushed interval's
        #: power is scaled by ~N(1, sigma), emulating the run-to-run
        #: variation behind the paper's error bars
        self.noise_rng = None
        self.noise_sigma = 0.0
        self.background_load = 0.0
        self.energy_j = 0.0
        #: per-mechanism energy attribution (keys from
        #: PowerModel.COMPONENT_KEYS); sums to energy_j up to rounding,
        #: since an interval's noise scales every component alike
        self.energy_components_j: Dict[str, float] = {
            key: 0.0 for key in PowerModel.COMPONENT_KEYS
        }
        self._last_flush = sim.now

    # -- accumulation ------------------------------------------------------

    def set_background_load(self, load: float) -> None:
        """Change the `stress` load fraction (flushes the open interval)."""
        if not 0.0 <= load <= 1.0:
            raise EnergyModelError(f"load must be in [0, 1], got {load}")
        self.flush()
        self.background_load = load

    # -- integration -------------------------------------------------------

    def flush(self) -> None:
        """Close the open interval: convert accumulated activity to energy."""
        now = self.sim.now
        duration = now - self._last_flush
        if duration <= 0:
            return
        activity = IntervalActivity(
            duration_s=duration,
            wire_bytes=self.wire_bytes,
            packet_events=self.packet_events,
            cc_cost_units=self.cc_units,
            retransmissions=self.retransmissions,
            background_load=self.background_load,
        )
        components = self.model.power_components(activity)
        power = sum(components.values())
        scale = 1.0
        if self.noise_rng is not None and self.noise_sigma > 0:
            scale = max(0.0, self.noise_rng.gauss(1.0, self.noise_sigma))
            power *= scale
        self.energy_j += power * duration
        for key, watts in components.items():
            self.energy_components_j[key] += watts * scale * duration
        sink = self.sim.probe_sink
        if sink.enabled:
            # Instantaneous per-package power, the run's only record of
            # power over time: the value the RAPL emulation integrates,
            # stamped at the flush boundary.
            sink.sample(now, POWER_CHANNEL, self.name, power)
        self._last_flush = now
        self.wire_bytes = 0
        self.packet_events = 0
        self.cc_units = 0.0
        self.retransmissions = 0


class CpuModel(HostListener):
    """Attributes one host's stack work to its CPU packages.

    Flows are pinned to packages round-robin on first sight (mirroring
    the paper's two-flow / two-package setup); :meth:`pin_flow` overrides.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        model: Optional[PowerModel] = None,
        packages: int = 2,
        sample_interval_s: float = DEFAULT_SAMPLE_INTERVAL_S,
    ):
        if packages < 1:
            raise EnergyModelError(f"need >= 1 package, got {packages}")
        self.sim = sim
        self.host = host
        self.model = model or PowerModel()
        self.packages: List[CpuPackage] = [
            CpuPackage(f"{host.name}-pkg{i}", self.model, sim)
            for i in range(packages)
        ]
        self._flow_pin: Dict[int, CpuPackage] = {}
        self._next_pin = 0
        self._sampler = PeriodicTimer(sim, sample_interval_s, self.flush_all)
        host.add_listener(self)

    # -- pinning -----------------------------------------------------------

    def pin_flow(self, flow_id: int, package_index: int) -> None:
        """Pin ``flow_id``'s processing to a specific package (its later
        work, if the host has charged it already)."""
        self._flow_pin[flow_id] = self.packages[package_index]
        self.host.forget_tally(flow_id)

    def package_for(self, flow_id: int) -> CpuPackage:
        """The package attributed with ``flow_id``'s work (auto-pins)."""
        pkg = self._flow_pin.get(flow_id)
        if pkg is None:
            pkg = self.packages[self._next_pin % len(self.packages)]
            self._next_pin += 1
            self._flow_pin[flow_id] = pkg
        return pkg

    #: HostListener: a flow's work is added to its package
    tally_for = package_for

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin periodic power sampling."""
        for pkg in self.packages:
            pkg._last_flush = self.sim.now
        self._sampler.start()

    def stop(self) -> None:
        """Stop sampling (flushes the open interval)."""
        self.flush_all()
        self._sampler.stop()

    def flush_all(self) -> None:
        """Flush every package's open accounting interval."""
        for pkg in self.packages:
            pkg.flush()

    @property
    def total_energy_j(self) -> float:
        """Total energy across packages since construction (flushes first)."""
        self.flush_all()
        return sum(pkg.energy_j for pkg in self.packages)

    def set_background_load(self, load: float) -> None:
        """Apply a `stress`-style load fraction to every package."""
        for pkg in self.packages:
            pkg.set_background_load(load)

    def set_noise(self, rng, sigma: float) -> None:
        """Enable per-interval power measurement noise on every package."""
        for pkg in self.packages:
            pkg.noise_rng = rng
            pkg.noise_sigma = sigma
