"""Unit tests for DCTCP's alpha estimator and proportional reduction."""

import pytest

from repro.cc.dctcp import DCTCP_GAIN, Dctcp
from tests.cc.conftest import make_event


def prime(ctx):
    """DCTCP instance out of slow start with RTT established."""
    cc = Dctcp(ctx)
    cc.ssthresh = cc.cwnd
    ctx.set_rtt(1e-3, min_rtt=1e-3)
    return cc


class TestAlphaEstimator:
    def test_alpha_starts_at_one(self, ctx):
        assert Dctcp(ctx).alpha == 1.0

    def test_alpha_decays_without_marks(self, ctx):
        cc = prime(ctx)
        for _ in range(20):
            ctx.advance(2e-3)  # past each observation window
            cc.on_ack(make_event(acked=14_600, marked=0))
        assert cc.alpha < (1 - DCTCP_GAIN) ** 10

    def test_alpha_rises_with_full_marking(self, ctx):
        cc = prime(ctx)
        cc.alpha = 0.0
        for _ in range(20):
            ctx.advance(2e-3)
            cc.on_ack(make_event(acked=14_600, marked=14_600))
        assert cc.alpha > 0.5

    def test_fractional_marking_converges_to_fraction(self, ctx):
        cc = prime(ctx)
        for _ in range(200):
            ctx.advance(2e-3)
            cc.on_ack(make_event(acked=10_000, marked=2_500))
        assert cc.alpha == pytest.approx(0.25, abs=0.05)


class TestReduction:
    def test_cut_proportional_to_alpha(self, ctx):
        cc = prime(ctx)
        cc.alpha = 0.5
        cc.cwnd = 100_000
        # One marked window: cut by alpha/2 (~25%); alpha also updates.
        ctx.advance(2e-3)
        cc.on_ack(make_event(acked=100_000, marked=100_000))
        assert 60_000 < cc.cwnd < 90_000

    def test_no_cut_without_marks(self, ctx):
        cc = prime(ctx)
        cc.cwnd = 100_000
        ctx.advance(2e-3)
        cc.on_ack(make_event(acked=14_600, marked=0))
        assert cc.cwnd >= 100_000  # grew, never cut

    def test_loss_still_halves(self, ctx):
        cc = prime(ctx)
        cc.cwnd = 100_000
        cc.ssthresh = 100_000
        cc.on_congestion_event(make_event())
        assert cc.cwnd == pytest.approx(50_000)

    def test_reacts_per_ack_flag(self, ctx):
        assert Dctcp(ctx).reacts_per_ack_to_ecn is True

    def test_tiny_alpha_gives_gentle_cut(self, ctx):
        cc = prime(ctx)
        cc.alpha = 0.05
        cc.cwnd = 100_000
        ctx.advance(2e-3)
        cc.on_ack(make_event(acked=100_000, marked=5_000))
        assert cc.cwnd > 95_000  # barely touched


#: RFC 8257 §4.2's recommended gain, stated here rather than imported, so
#: a changed ``DCTCP_GAIN`` fails below
RFC_G = 1.0 / 16.0


@pytest.mark.parametrize(
    "alpha0, fraction", [(1.0, 0.25), (0.0, 0.5), (0.3, 0.0), (0.6, 1.0)]
)
def test_alpha_after_n_windows_at_a_constant_marked_fraction(
    ctx, alpha0, fraction
):
    """α ← (1 − g)α + gF once per window (RFC 8257 §3.3) gives, after n
    windows at a constant marked fraction F, α = F + (α₀ − F)(1 − g)ⁿ:
    α converges to F with time constant 1/g windows."""
    cc = prime(ctx)
    cc.alpha = alpha0
    acked = 16_000
    for n in range(1, 41):
        ctx.advance(2e-3)  # past the 1 ms window: this ACK closes one
        cc.on_ack(make_event(acked=acked, marked=int(acked * fraction)))
        assert cc.alpha == pytest.approx(
            fraction + (alpha0 - fraction) * (1 - RFC_G) ** n, abs=1e-12
        )
