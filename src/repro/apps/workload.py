"""Production-datacenter workload generation.

§5: the paper's lab results need validation "with the sorts of workloads
used in production data centers". This module provides the two flow-size
distributions the datacenter transport literature standardized on (both
published with the DCTCP/pFabric measurement studies) plus Poisson flow
arrivals, so energy experiments can run against realistic traffic:

* **web-search** (DCTCP, Alizadeh et al. 2010): mice-heavy query traffic
  with a heavy tail to ~30 MB;
* **data-mining** (VL2/pFabric): extremely heavy-tailed — most flows
  under 10 KB, most *bytes* in multi-MB flows.

Sizes are expressed at simulation scale (bytes); the empirical CDFs are
the published ones with the tails capped at the simulator-friendly sizes
noted per distribution.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.errors import ExperimentError
from repro.sim.rng import RngRegistry
from repro.units import gbps

if TYPE_CHECKING:
    import random

#: (size_bytes, cumulative probability) knots — web search (DCTCP Fig. 4)
WEB_SEARCH_CDF: Sequence[Tuple[int, float]] = (
    (6_000, 0.15),
    (13_000, 0.30),
    (19_000, 0.40),
    (33_000, 0.53),
    (53_000, 0.60),
    (133_000, 0.70),
    (667_000, 0.80),
    (1_333_000, 0.90),
    (3_333_000, 0.95),
    (6_667_000, 0.98),
    (20_000_000, 1.00),
)

#: data mining (VL2 / pFabric): most flows tiny, most bytes huge
DATA_MINING_CDF: Sequence[Tuple[int, float]] = (
    (180, 0.10),
    (1_000, 0.40),
    (10_000, 0.70),
    (100_000, 0.80),
    (1_000_000, 0.90),
    (10_000_000, 0.96),
    (30_000_000, 1.00),
)

#: RPC request/response traffic (memcached/Thrift-style): overwhelmingly
#: small messages, capped at 16 KB
RPC_CDF: Sequence[Tuple[int, float]] = (
    (64, 0.05),
    (256, 0.30),
    (512, 0.50),
    (1_000, 0.70),
    (2_000, 0.85),
    (4_000, 0.95),
    (16_000, 1.00),
)

#: elephant/background transfers (storage replication, shuffles): every
#: flow is at least 1 MB, capped at 10 MB to stay simulator-friendly
ELEPHANT_CDF: Sequence[Tuple[int, float]] = (
    (1_000_000, 0.25),
    (2_000_000, 0.55),
    (4_000_000, 0.85),
    (10_000_000, 1.00),
)

DISTRIBUTIONS = {
    "web-search": WEB_SEARCH_CDF,
    "data-mining": DATA_MINING_CDF,
    "rpc": RPC_CDF,
    "elephant": ELEPHANT_CDF,
}

#: named traffic mixes for fabric workloads: (flow class, weight) pairs
#: over DISTRIBUTIONS entries. Weights are normalized at sampling time.
MIXES = {
    "datacenter": (("rpc", 0.60), ("web-search", 0.35), ("elephant", 0.05)),
    "rpc-heavy": (("rpc", 0.90), ("web-search", 0.09), ("elephant", 0.01)),
    "web-search": (("web-search", 1.0),),
    "data-mining": (("data-mining", 1.0),),
    "rpc": (("rpc", 1.0),),
    "elephant": (("elephant", 1.0),),
}


def mix_components(mix: str) -> Sequence[Tuple[str, float]]:
    """The (flow class, weight) components of a named mix."""
    if mix not in MIXES:
        raise ExperimentError(
            f"unknown traffic mix {mix!r}; known: {sorted(MIXES)}"
        )
    return MIXES[mix]


def mean_mix_flow_size(mix: str, seed: int = 0) -> float:
    """Weight-averaged mean flow size of a mix (sizes arrival rates)."""
    components = mix_components(mix)
    total_weight = sum(weight for _cls, weight in components)
    return (
        sum(
            weight * mean_flow_size(DISTRIBUTIONS[cls], seed=seed)
            for cls, weight in components
        )
        / total_weight
    )


def sample_flow_size(
    cdf: Sequence[Tuple[int, float]], rng: random.Random
) -> int:
    """Draw one flow size from an empirical CDF (log-linear interpolation
    between knots, the standard treatment for these heavy tails)."""
    u = rng.random()
    prev_size, prev_p = 1, 0.0
    for size, p in cdf:
        if u <= p:
            if p == prev_p:
                return size
            frac = (u - prev_p) / (p - prev_p)
            log_size = (
                math.log(prev_size)
                + frac * (math.log(size) - math.log(prev_size))
            )
            return max(1, int(math.exp(log_size)))
        prev_size, prev_p = size, p
    return cdf[-1][0]


def mean_flow_size(cdf: Sequence[Tuple[int, float]], samples: int = 20_000,
                   seed: int = 0) -> float:
    """Monte-Carlo mean of the distribution (used to size arrival rates).

    A pure function of its arguments, so each (distribution, samples,
    seed) is sampled once per process: every fabric workload generated
    afterwards reuses the value instead of redrawing 20 000 sizes.

    The value is exactly the mean of ``samples`` calls of
    :func:`sample_flow_size` on the "flow-size-mean" stream, but it is
    summed bucket by bucket, not draw by draw: the variates are sorted,
    one ``bisect_right`` per knot finds the slice that the per-draw scan
    (``u <= p``, first match) sends to that knot, and each slice is
    interpolated by one list comprehension with the scan's own float
    expression. Every term is an ``int``, so the total does not depend
    on the order it is added in and ``total / samples`` is the same
    correctly rounded division. The per-draw floor ``max(1, ...)``
    never binds here: an interpolated size lies between two knot sizes
    that are both >= 1. What is left per variate is one ``random()`` and
    one ``exp`` inside a comprehension, plus one sort, with no Python
    frame per draw: on the ``datacenter`` mix it takes well under half
    the time of 60 000 :func:`sample_flow_size` calls.

    A CDF must be non-empty, with integer sizes >= 1 and probabilities
    in [0, 1] that never decrease, and ``samples`` must be >= 1;
    anything else raises :class:`ExperimentError`.
    """
    return _mean_flow_size(tuple(cdf), samples, seed)


@functools.lru_cache(maxsize=64)
def _mean_flow_size(cdf: Tuple[Tuple[int, float], ...], samples: int,
                    seed: int) -> float:
    _check_cdf(cdf, samples)
    rng = RngRegistry(seed).stream("flow-size-mean")
    us = sorted([rng.random() for _ in range(samples)])
    total, lo = 0, 0
    prev_size, prev_p = 1, 0.0
    for size, p in cdf:
        hi = bisect.bisect_right(us, p, lo)
        if p == prev_p:
            total += size * (hi - lo)
        else:
            lp = math.log(prev_size)
            dp = p - prev_p
            d = math.log(size) - lp
            total += sum([
                int(math.exp(lp + (u - prev_p) / dp * d)) for u in us[lo:hi]
            ])
        lo, prev_size, prev_p = hi, size, p
    return (total + cdf[-1][0] * (samples - lo)) / samples


def _check_cdf(cdf: Tuple[Tuple[int, float], ...], samples: int) -> None:
    if not isinstance(samples, int) or samples < 1:
        raise ExperimentError(f"need >= 1 sample, got {samples!r}")
    if not cdf:
        raise ExperimentError("flow-size CDF has no knots")
    prev_p = 0.0
    for size, p in cdf:
        if not isinstance(size, int) or size < 1:
            raise ExperimentError(
                f"flow-size CDF size must be an integer >= 1, got {size!r}"
            )
        if not prev_p <= p <= 1.0:
            raise ExperimentError(
                f"flow-size CDF probability {p!r} is outside "
                f"[{prev_p!r}, 1] (below the previous knot, or above 1)"
            )
        prev_p = p


@dataclass
class FlowArrival:
    """One generated flow."""

    start_time_s: float
    size_bytes: int


@dataclass
class Workload:
    """A generated open-loop workload."""

    name: str
    flows: List[FlowArrival]
    capacity_bps: float

    @property
    def total_bytes(self) -> int:
        return sum(f.size_bytes for f in self.flows)

    @property
    def span_s(self) -> float:
        return max(f.start_time_s for f in self.flows) if self.flows else 0.0

    @property
    def offered_load(self) -> float:
        """Actual offered load over the generation window."""
        if self.span_s <= 0:
            return 0.0
        return self.total_bytes * 8.0 / self.span_s / self.capacity_bps


def generate_workload(
    distribution: str = "web-search",
    target_load: float = 0.5,
    capacity_bps: float = gbps(10.0),
    duration_s: float = 0.05,
    seed: int = 0,
    max_flows: int = 2000,
) -> Workload:
    """Poisson arrivals at the rate that offers ``target_load`` of the
    bottleneck, with sizes drawn from the named distribution."""
    if distribution not in DISTRIBUTIONS:
        raise ExperimentError(
            f"unknown distribution {distribution!r}; "
            f"known: {sorted(DISTRIBUTIONS)}"
        )
    if not 0.0 < target_load < 1.0:
        raise ExperimentError(f"load must be in (0, 1), got {target_load}")
    cdf = DISTRIBUTIONS[distribution]
    rng = RngRegistry(seed).stream("workload-arrivals")
    mean_size = mean_flow_size(cdf, seed=seed)
    arrival_rate = target_load * capacity_bps / (mean_size * 8.0)
    flows: List[FlowArrival] = []
    clock = 0.0
    while clock < duration_s and len(flows) < max_flows:
        clock += rng.expovariate(arrival_rate)
        if clock >= duration_s:
            break
        flows.append(
            FlowArrival(
                start_time_s=clock,
                size_bytes=sample_flow_size(cdf, rng),
            )
        )
    if not flows:
        raise ExperimentError(
            "generated an empty workload; increase duration or load"
        )
    return Workload(
        name=distribution,
        flows=flows,
        capacity_bps=capacity_bps,
    )


# -- fabric workloads (multi-rack traffic matrices) -------------------


@dataclass
class FabricFlow:
    """One generated fabric flow: size plus placement.

    ``incast_group`` is ``-1`` for ordinary point-to-point flows; flows
    sharing a non-negative group id are the synchronized senders of one
    incast fan-in (same destination, same start time — the partition/
    aggregate pattern FairQ and the DCTCP study both highlight).
    """

    start_time_s: float
    size_bytes: int
    src: str
    dst: str
    flow_class: str
    incast_group: int = -1


@dataclass
class FabricWorkload:
    """A generated fabric-wide open-loop workload."""

    flows: List[FabricFlow]
    #: aggregate host-uplink capacity the load target is expressed against
    capacity_bps: float

    @property
    def total_bytes(self) -> int:
        return sum(f.size_bytes for f in self.flows)

    @property
    def span_s(self) -> float:
        return max(f.start_time_s for f in self.flows) if self.flows else 0.0

    @property
    def offered_load(self) -> float:
        """Offered fraction of the aggregate host-uplink capacity."""
        if self.span_s <= 0:
            return 0.0
        return self.total_bytes * 8.0 / self.span_s / self.capacity_bps


def _pick_weighted(
    components: Sequence[Tuple[str, float]], rng: random.Random
) -> str:
    total = sum(weight for _cls, weight in components)
    u = rng.random() * total
    acc = 0.0
    for cls, weight in components:
        acc += weight
        if u <= acc:
            return cls
    return components[-1][0]


#: the fabric workload's placement: the share of flows kept inside the
#: source's rack, the share of arrival events that are incasts, and each
#: incast's number of senders
RACK_LOCAL_FRACTION = 0.3
INCAST_FRACTION = 0.05
INCAST_FAN_IN = 8


def generate_fabric_workload(
    hosts: Sequence[str],
    rack_of: "dict[str, int]",
    mix: str = "datacenter",
    n_flows: int = 1000,
    target_load: float = 0.3,
    host_capacity_bps: float = gbps(10.0),
    rack_local_fraction: float = RACK_LOCAL_FRACTION,
    incast_fraction: float = INCAST_FRACTION,
    incast_fan_in: int = INCAST_FAN_IN,
    seed: int = 0,
) -> FabricWorkload:
    """Generate exactly ``n_flows`` flows over a fabric's hosts.

    Arrivals are Poisson at the rate that offers ``target_load`` of the
    aggregate host-uplink capacity given the mix's mean flow size.
    Placement draws a source uniformly, then keeps the destination in
    the source's rack with probability ``rack_local_fraction`` (VL2's
    measured matrices are rack-skewed, not uniform). A
    ``incast_fraction`` share of arrival events instead fan
    ``incast_fan_in`` rack-external senders into one destination
    simultaneously — each sender counts toward ``n_flows``.

    All randomness flows through four named :class:`RngRegistry`
    streams ("fabric-arrivals", "fabric-size", "fabric-placement",
    "fabric-incast"), so identical arguments yield byte-identical
    workloads on any platform.
    """
    if len(hosts) < 2:
        raise ExperimentError(f"need >= 2 hosts, got {len(hosts)}")
    if n_flows < 1:
        raise ExperimentError(f"need >= 1 flow, got {n_flows}")
    if not 0.0 < target_load < 1.0:
        raise ExperimentError(f"load must be in (0, 1), got {target_load}")
    if not 0.0 <= rack_local_fraction <= 1.0:
        raise ExperimentError(
            f"rack-local fraction must be in [0, 1], got {rack_local_fraction}"
        )
    if not 0.0 <= incast_fraction <= 1.0:
        raise ExperimentError(
            f"incast fraction must be in [0, 1], got {incast_fraction}"
        )
    if incast_fan_in < 2:
        raise ExperimentError(f"incast fan-in must be >= 2, got {incast_fan_in}")
    for host in hosts:
        if host not in rack_of:
            raise ExperimentError(f"host {host!r} has no rack assignment")

    components = mix_components(mix)
    registry = RngRegistry(seed)
    arrivals_rng = registry.stream("fabric-arrivals")
    size_rng = registry.stream("fabric-size")
    placement_rng = registry.stream("fabric-placement")
    incast_rng = registry.stream("fabric-incast")

    hosts = list(hosts)
    racks: "dict[int, List[str]]" = {}
    for host in hosts:
        racks.setdefault(rack_of[host], []).append(host)

    mean_size = mean_mix_flow_size(mix, seed=seed)
    # an incast event injects fan_in flows at once; thin the event rate
    # so the *byte* rate still offers target_load
    flows_per_event = (
        1.0 - incast_fraction
    ) + incast_fraction * incast_fan_in
    arrival_rate = target_load * host_capacity_bps * len(hosts) / (
        mean_size * 8.0 * flows_per_event
    )

    def _sample_size() -> Tuple[str, int]:
        cls = _pick_weighted(components, size_rng)
        return cls, sample_flow_size(DISTRIBUTIONS[cls], size_rng)

    def _pick_dst(src: str) -> str:
        src_rack = rack_of[src]
        local_peers = [h for h in racks[src_rack] if h != src]
        if local_peers and placement_rng.random() < rack_local_fraction:
            return local_peers[placement_rng.randrange(len(local_peers))]
        remote = [h for h in hosts if rack_of[h] != src_rack]
        if not remote:  # single-rack fabric: everything is rack-local
            return local_peers[placement_rng.randrange(len(local_peers))]
        return remote[placement_rng.randrange(len(remote))]

    flows: List[FabricFlow] = []
    clock = 0.0
    incast_group = 0
    while len(flows) < n_flows:
        clock += arrivals_rng.expovariate(arrival_rate)
        if incast_rng.random() < incast_fraction:
            # one incast event: fan_in rack-external senders -> one dst
            dst = hosts[incast_rng.randrange(len(hosts))]
            candidates = [h for h in hosts if rack_of[h] != rack_of[dst]]
            if not candidates:
                candidates = [h for h in hosts if h != dst]
            fan_in = min(incast_fan_in, n_flows - len(flows), len(candidates))
            chosen = incast_rng.sample(candidates, fan_in)
            for src in chosen:
                _cls, size = _sample_size()
                flows.append(
                    FabricFlow(
                        start_time_s=clock,
                        size_bytes=size,
                        src=src,
                        dst=dst,
                        flow_class="incast",
                        incast_group=incast_group,
                    )
                )
            incast_group += 1
            continue
        src = hosts[placement_rng.randrange(len(hosts))]
        cls, size = _sample_size()
        flows.append(
            FabricFlow(
                start_time_s=clock,
                size_bytes=size,
                src=src,
                dst=_pick_dst(src),
                flow_class=cls,
            )
        )

    return FabricWorkload(
        flows=flows,
        capacity_bps=host_capacity_bps * len(hosts),
    )
