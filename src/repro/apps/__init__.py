"""Traffic applications: iperf3-style sessions and throughput probes."""

from __future__ import annotations

from repro.apps.iperf import (
    ECN_ALGORITHMS,
    IperfResult,
    IperfSession,
    run_until_complete,
)
from repro.apps.probe import ThroughputProbe
from repro.apps.workload import (
    DATA_MINING_CDF,
    ELEPHANT_CDF,
    MIXES,
    RPC_CDF,
    WEB_SEARCH_CDF,
    FabricFlow,
    FabricWorkload,
    FlowArrival,
    Workload,
    generate_fabric_workload,
    generate_workload,
    mean_mix_flow_size,
    mix_components,
    sample_flow_size,
)

__all__ = [
    "IperfSession",
    "IperfResult",
    "run_until_complete",
    "ThroughputProbe",
    "ECN_ALGORITHMS",
    "Workload",
    "FlowArrival",
    "generate_workload",
    "sample_flow_size",
    "WEB_SEARCH_CDF",
    "DATA_MINING_CDF",
    "RPC_CDF",
    "ELEPHANT_CDF",
    "MIXES",
    "mix_components",
    "mean_mix_flow_size",
    "FabricFlow",
    "FabricWorkload",
    "generate_fabric_workload",
]
