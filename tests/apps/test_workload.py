"""Tests for the production-workload generator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.workload import (
    DATA_MINING_CDF,
    WEB_SEARCH_CDF,
    generate_workload,
    mean_flow_size,
    sample_flow_size,
)
from repro.errors import ExperimentError
from repro.sim.rng import RngRegistry


class TestSampling:
    def test_sizes_within_distribution_range(self):
        rng = random.Random(1)
        for _ in range(500):
            size = sample_flow_size(WEB_SEARCH_CDF, rng)
            assert 1 <= size <= WEB_SEARCH_CDF[-1][0]

    def test_deterministic_given_rng(self):
        a = [sample_flow_size(WEB_SEARCH_CDF, random.Random(7)) for _ in range(10)]
        b = [sample_flow_size(WEB_SEARCH_CDF, random.Random(7)) for _ in range(10)]
        assert a == b

    def test_data_mining_heavier_tail(self):
        """Data mining has more tiny flows AND a bigger max than web search."""
        rng = random.Random(3)
        mining = sorted(
            sample_flow_size(DATA_MINING_CDF, rng) for _ in range(2000)
        )
        rng = random.Random(3)
        search = sorted(
            sample_flow_size(WEB_SEARCH_CDF, rng) for _ in range(2000)
        )
        assert mining[len(mining) // 2] < search[len(search) // 2]  # median
        assert max(mining) > max(search) * 0.5

    def test_mean_flow_size_positive(self):
        assert mean_flow_size(WEB_SEARCH_CDF) > 100_000

    def test_mean_flow_size_is_sampled_once_per_input(self):
        """Memoised on (distribution, samples, seed): the value is the
        Monte-Carlo mean, bit for bit, and a repeat draws nothing."""
        rng = RngRegistry(5).stream("flow-size-mean")
        direct = sum(sample_flow_size(DATA_MINING_CDF, rng) for _ in range(300)) / 300
        assert mean_flow_size(DATA_MINING_CDF, samples=300, seed=5) == direct
        assert mean_flow_size(list(DATA_MINING_CDF), samples=300, seed=5) == direct
        assert mean_flow_size(DATA_MINING_CDF, samples=300, seed=6) != direct
        assert mean_flow_size(DATA_MINING_CDF, samples=301, seed=5) != direct
        assert mean_flow_size(WEB_SEARCH_CDF, samples=300, seed=5) != direct

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_median_between_knots(self, seed):
        rng = random.Random(seed)
        sizes = sorted(sample_flow_size(WEB_SEARCH_CDF, rng) for _ in range(200))
        median = sizes[100]
        # CDF says p(13k)=0.3, p(53k)=0.6: the median sits in that band
        assert 10_000 <= median <= 80_000


class TestGeneration:
    def test_offered_load_near_target(self):
        workload = generate_workload(
            "web-search", target_load=0.5, duration_s=0.5, seed=1
        )
        assert workload.offered_load == pytest.approx(0.5, abs=0.3)

    def test_arrivals_sorted_and_within_window(self):
        workload = generate_workload("data-mining", duration_s=0.05, seed=2)
        times = [f.start_time_s for f in workload.flows]
        assert times == sorted(times)
        assert all(0 < t < 0.05 for t in times)

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ExperimentError):
            generate_workload("voip")

    def test_invalid_load_rejected(self):
        with pytest.raises(ExperimentError):
            generate_workload("web-search", target_load=1.5)

    def test_max_flows_respected(self):
        workload = generate_workload(
            "data-mining", target_load=0.9, duration_s=10.0, max_flows=50, seed=3
        )
        assert len(workload.flows) <= 50

    def test_deterministic_given_seed(self):
        a = generate_workload("web-search", seed=9)
        b = generate_workload("web-search", seed=9)
        assert [f.size_bytes for f in a.flows] == [f.size_bytes for f in b.flows]


class TestWorkloadEnergyExperiment:
    def test_srpt_faster_at_similar_energy(self):
        from repro.figures.workload_energy import run_workload_energy

        result = run_workload_energy(
            distribution="web-search", duration_s=0.02, seed=0
        )
        assert result.fct_speedup > 1.0
        assert result.energy_ratio == pytest.approx(1.0, abs=0.1)

    def test_table_renders(self):
        from repro.figures.workload_energy import run_workload_energy

        result = run_workload_energy(duration_s=0.015, seed=1)
        assert "srpt" in result.format_table()
