"""Property-based tests for the fabric workload generator.

Three contracts the fleet experiments lean on, checked over wide
randomized input ranges rather than a handful of examples:

* the open-loop arrival process *converges*: averaged over seeds, the
  realized offered load tracks the target (incast fan-in included —
  each incast event injects many flows, which the event rate must
  compensate for);
* :func:`sample_flow_size` respects its CDF: every sample inside the
  distribution's support, and stochastically monotone in the CDF (a
  heavier distribution yields larger quantiles);
* generation is a pure function of its arguments: identical seeds give
  byte-identical workloads, different seeds give different ones.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.workload import (
    DISTRIBUTIONS,
    MIXES,
    generate_fabric_workload,
    mean_mix_flow_size,
    sample_flow_size,
)
from repro.errors import ExperimentError
from repro.units import gbps

HOSTS = [f"h{r}-{i}" for r in range(4) for i in range(4)]
RACK_OF = {f"h{r}-{i}": r for r in range(4) for i in range(4)}


def tiny_workload(**overrides):
    defaults = dict(
        hosts=HOSTS,
        rack_of=RACK_OF,
        mix="rpc",
        n_flows=200,
        target_load=0.3,
        host_capacity_bps=gbps(10.0),
        seed=0,
    )
    defaults.update(overrides)
    return generate_fabric_workload(**defaults)


class TestOfferedLoadConvergence:
    @given(
        target=st.floats(min_value=0.1, max_value=0.6),
        base_seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_mean_offered_load_tracks_target(self, target, base_seed):
        # One seed's realized load is noisy (heavy-tailed sizes); the
        # contract is about the *process*: the mean over seeds converges
        # on the target within a loose band.
        loads = [
            tiny_workload(
                mix="datacenter",
                n_flows=400,
                target_load=target,
                seed=base_seed + k,
            ).offered_load
            for k in range(6)
        ]
        mean_load = sum(loads) / len(loads)
        assert mean_load == pytest.approx(target, rel=0.5)

    @given(
        fan_in=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_incast_fan_in_does_not_inflate_load(self, fan_in, seed):
        # Each incast event injects fan_in flows at once; the arrival
        # rate must thin accordingly or load overshoots by ~fan_in x.
        loads = [
            tiny_workload(
                n_flows=400,
                incast_fraction=0.2,
                incast_fan_in=fan_in,
                seed=seed + k,
            ).offered_load
            for k in range(6)
        ]
        mean_load = sum(loads) / len(loads)
        assert mean_load == pytest.approx(0.3, rel=0.5)

    def test_exact_flow_count(self):
        for n in (1, 7, 200):
            assert len(tiny_workload(n_flows=n).flows) == n

    def test_arrivals_sorted_nonnegative(self):
        workload = tiny_workload(n_flows=300, incast_fraction=0.1)
        times = [f.start_time_s for f in workload.flows]
        assert times == sorted(times)
        assert all(t >= 0.0 for t in times)


class TestSampleFlowSizeCdfContract:
    @given(
        name=st.sampled_from(sorted(DISTRIBUTIONS)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_samples_within_support(self, name, seed):
        cdf = DISTRIBUTIONS[name]
        rng = random.Random(seed)
        for _ in range(200):
            size = sample_flow_size(cdf, rng)
            assert 1 <= size <= cdf[-1][0]

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_quantiles_monotone_in_cdf(self, seed):
        # The elephant CDF dominates the rpc CDF above its low quantiles
        # — its mass sits at strictly larger sizes — so upper empirical
        # quantiles must come out larger under the same draw sequence.
        # (At the very bottom both CDFs log-interpolate down toward
        # 1 byte and rpc's steeper first segment actually sits *above*
        # elephant's until ~the 8% rank; comparison starts at the 40%
        # rank, far past that crossover plus sampling noise.)
        rng = random.Random(seed)
        rpc = sorted(
            sample_flow_size(DISTRIBUTIONS["rpc"], rng) for _ in range(300)
        )
        rng = random.Random(seed)
        elephant = sorted(
            sample_flow_size(DISTRIBUTIONS["elephant"], rng)
            for _ in range(300)
        )
        for small, big in zip(rpc[120:], elephant[120:]):
            assert small <= big

    @given(name=st.sampled_from(sorted(MIXES)))
    @settings(max_examples=10, deadline=None)
    def test_mix_mean_within_component_bounds(self, name):
        components = MIXES[name]
        mean = mean_mix_flow_size(name)
        maxima = [DISTRIBUTIONS[cls][-1][0] for cls, _w in components]
        assert 1 <= mean <= max(maxima)


class TestGenerationDeterminism:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_identical_seeds_identical_workloads(self, seed):
        a = tiny_workload(mix="datacenter", incast_fraction=0.1, seed=seed)
        b = tiny_workload(mix="datacenter", incast_fraction=0.1, seed=seed)
        assert a.flows == b.flows  # field-for-field, every flow

    def test_different_seeds_differ(self):
        a = tiny_workload(seed=1)
        b = tiny_workload(seed=2)
        assert a.flows != b.flows

    def test_placement_respects_host_set(self):
        workload = tiny_workload(n_flows=300, incast_fraction=0.1)
        for flow in workload.flows:
            assert flow.src in RACK_OF
            assert flow.dst in RACK_OF
            assert flow.src != flow.dst

    def test_rack_locality_steers_placement(self):
        local = tiny_workload(n_flows=500, rack_local_fraction=0.9, seed=5)
        remote = tiny_workload(n_flows=500, rack_local_fraction=0.05, seed=5)

        def cross_rack_fraction(workload):
            cross = sum(RACK_OF[f.src] != RACK_OF[f.dst] for f in workload.flows)
            return cross / len(workload.flows)

        assert cross_rack_fraction(local) < cross_rack_fraction(remote)

    def test_incast_groups_share_destination_and_start(self):
        workload = tiny_workload(
            n_flows=400, incast_fraction=0.2, incast_fan_in=6, seed=3
        )
        by_group = {}
        for flow in workload.flows:
            if flow.incast_group >= 0:
                by_group.setdefault(flow.incast_group, []).append(flow)
        assert by_group
        for flows in by_group.values():
            assert len({f.dst for f in flows}) == 1
            assert len({f.start_time_s for f in flows}) == 1
            assert len({f.src for f in flows}) == len(flows)  # distinct senders

    def test_unknown_mix_rejected(self):
        with pytest.raises(ExperimentError):
            tiny_workload(mix="voip")

    def test_bad_load_rejected(self):
        with pytest.raises(ExperimentError):
            tiny_workload(target_load=0.0)
