"""The flow-size mean: a bucketed sum pinned to the per-draw definition.

:func:`mean_flow_size` sums sorted variates bucket by bucket, while
:func:`sample_flow_size` (which the generators draw every flow size
with) scans the CDF once per draw. The reference here is the per-draw
mean written out in full; every case asserts ``==`` against it, so the
two ways of writing the interpolation cannot drift apart. The scripted
variates put draws exactly on knot probabilities and on 0.0, the edges
the sorted walk has to send to the same knot as the scan.
"""

from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import workload
from repro.apps.workload import (
    DISTRIBUTIONS,
    MIXES,
    mean_flow_size,
    mean_mix_flow_size,
    sample_flow_size,
)
from repro.errors import ExperimentError
from repro.sim.rng import RngRegistry


def reference_mean(cdf, samples, seed):
    """The per-draw Monte-Carlo mean on the "flow-size-mean" stream."""
    rng = RngRegistry(seed).stream("flow-size-mean")
    return sum(sample_flow_size(cdf, rng) for _ in range(samples)) / samples


@pytest.mark.parametrize("samples", (1, 2, 301, 20_000))
@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
def test_every_distribution_matches_the_per_draw_mean(name, samples):
    cdf = DISTRIBUTIONS[name]
    for seed in range(10):
        assert mean_flow_size(cdf, samples, seed) == reference_mean(
            cdf, samples, seed
        ), (name, samples, seed)


@st.composite
def cdfs(draw):
    """Valid CDFs: 1-8 knots, ascending integer sizes >= 1, probabilities
    that never decrease, drawn from a small pool so repeats are common,
    often starting at 0.0 and often ending below 1."""
    n = draw(st.integers(min_value=1, max_value=8))
    sizes = sorted(
        draw(st.lists(st.integers(1, 10**9), min_size=n, max_size=n))
    )
    pool = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)) + [0.0]
    probs = sorted(
        draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    )
    return tuple(zip(sizes, probs))


@given(cdf=cdfs(), seed=st.integers(0, 9), samples=st.integers(1, 400))
@settings(max_examples=150, deadline=None)
def test_any_cdf_matches_the_per_draw_mean(cdf, seed, samples):
    assert mean_flow_size(cdf, samples, seed) == reference_mean(
        cdf, samples, seed
    )


def scripted_means(cdf, variates):
    """(bucketed, per-draw) means of ``cdf`` over exactly ``variates``."""
    def registry(_seed):
        return SimpleNamespace(stream=lambda _name: stream())

    def stream():
        return SimpleNamespace(random=iter(variates).__next__)

    draws = stream()
    per_draw = sum(sample_flow_size(cdf, draws) for _ in variates) / len(variates)
    with mock.patch.object(workload, "RngRegistry", registry):
        bucketed = workload._mean_flow_size.__wrapped__(cdf, len(variates), 0)
    return bucketed, per_draw


def test_variates_on_a_repeated_knot_and_on_zero_match_the_per_draw_mean():
    cdf = ((10, 0.0), (100, 0.5), (1_000, 0.5), (10_000, 0.75))
    bucketed, per_draw = scripted_means(cdf, [0.9, 0.5, 0.0, 0.75, 0.25, 0.5])
    assert bucketed == per_draw


@given(data=st.data(), cdf=cdfs())
@settings(max_examples=300, deadline=None)
def test_variates_on_the_knots_match_the_per_draw_mean(data, cdf):
    edges = [p for _size, p in cdf if p < 1.0] + [0.0]
    variates = data.draw(
        st.lists(
            st.one_of(
                st.sampled_from(edges),
                st.floats(0.0, 1.0, exclude_max=True),
            ),
            min_size=1,
            max_size=40,
        )
    )
    bucketed, per_draw = scripted_means(cdf, variates)
    assert bucketed == per_draw


#: ``repr(mean_mix_flow_size(mix, seed))`` for seeds 0, 1 and 7, as the
#: per-draw mean computed them: fabric arrival rates are sized from these
GOLDEN_MIX_MEANS = {
    "datacenter": ("337731.8062875", "346496.784565", "345941.8145325"),
    "rpc-heavy": ("81114.8723505", "83358.311818", "83251.6569105"),
    "web-search": ("632113.20675", "655655.5009", "656195.9277"),
    "data-mining": ("977135.3638", "1039489.3781", "1025014.72605"),
    "rpc": ("1187.4961", "1212.62165", "1204.3275"),
    "elephant": ("2315593.7253", "2325795.7252", "2311012.86675"),
}


def test_golden_mix_means_cover_every_mix():
    assert set(GOLDEN_MIX_MEANS) == set(MIXES)


@pytest.mark.parametrize("mix", sorted(GOLDEN_MIX_MEANS))
def test_mix_means_are_the_golden_values_to_the_bit(mix):
    got = tuple(repr(mean_mix_flow_size(mix, seed)) for seed in (0, 1, 7))
    assert got == GOLDEN_MIX_MEANS[mix]


# -- bad input is rejected, naming the value -----------------------------


@pytest.mark.parametrize(
    "cdf, samples, named",
    [
        (((1_000, 1.0),), 0, "got 0"),
        (((1_000, 1.0),), -3, "got -3"),
        ((), 100, "no knots"),
        (((1_000, 0.6), (2_000, 0.4)), 100, "0.4"),
        (((1_000, -0.1), (2_000, 1.0)), 100, "-0.1"),
        (((1_000, 0.5), (2_000, 1.5)), 100, "1.5"),
        (((1_000, float("nan")),), 100, "nan"),
        (((0, 0.5), (2_000, 1.0)), 100, "got 0"),
        (((1_000, 0.5), (1_500.5, 1.0)), 100, "1500.5"),
    ],
    ids=[
        "zero-samples", "negative-samples", "empty", "decreasing-p",
        "negative-p", "p-above-1", "nan-p", "size-0", "fractional-size",
    ],
)
def test_bad_input_raises_experiment_error_naming_it(cdf, samples, named):
    with pytest.raises(ExperimentError, match=named):
        mean_flow_size(cdf, samples=samples)
