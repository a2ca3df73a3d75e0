"""repro — reproduction of *Green With Envy: Unfair Congestion Control
Algorithms Can Be More Energy Efficient* (HotNets '23).

The library layers, bottom-up:

* :mod:`repro.sim` — discrete-event kernel (clock, events, timers, RNG)
* :mod:`repro.net` — packets, queues, links, NICs, switch, hosts, topology
* :mod:`repro.tcp` — TCP sender/receiver with SACK loss recovery
* :mod:`repro.cc` — the paper's ten congestion control algorithms
* :mod:`repro.energy` — calibrated power model + RAPL-emulating meters
* :mod:`repro.apps` — iperf3-style traffic and throughput probes
* :mod:`repro.core` — the paper's contribution: Theorem 1, allocation
  strategies, green scheduling, $-savings extrapolation
* :mod:`repro.harness` — scenario runner with repetition statistics
* :mod:`repro.figures` — one pipeline per paper figure (1-8)

Quick start::

    from repro.harness import Scenario, FlowSpec, run_once

    fair = Scenario("fair", flows=[
        FlowSpec(12_500_000, cca="cubic", target_rate_bps=5e9),
        FlowSpec(12_500_000, cca="cubic", target_rate_bps=5e9),
    ])
    fsti = Scenario("greedy", flows=[
        FlowSpec(12_500_000, cca="cubic"),
        FlowSpec(12_500_000, cca="cubic"),
    ], policy="serialized")
    saved = 1 - run_once(fsti).energy_j / run_once(fair).energy_j
    print(f"full-speed-then-idle saves {saved:.1%}")   # ~16%
"""

from __future__ import annotations

from repro.errors import (
    AnalysisError,
    EnergyModelError,
    ExperimentError,
    NetworkConfigError,
    ReproError,
    SimulationError,
    TcpStateError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "SimulationError",
    "NetworkConfigError",
    "TcpStateError",
    "EnergyModelError",
    "ExperimentError",
    "AnalysisError",
]
