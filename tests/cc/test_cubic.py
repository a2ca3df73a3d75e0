"""Unit tests for CUBIC (RFC 8312)."""

import pytest

from repro.cc.cubic import CUBIC_BETA, Cubic
from tests.cc.conftest import make_event


class TestReduction:
    def test_beta_reduction(self, ctx):
        cc = Cubic(ctx)
        cc.cwnd = 100_000
        cc.ssthresh = 100_000
        cc.on_congestion_event(make_event())
        assert cc.cwnd == pytest.approx(100_000 * CUBIC_BETA)

    def test_fast_convergence_lowers_wmax(self, ctx):
        cc = Cubic(ctx)
        cc.cwnd = 100_000
        cc.ssthresh = 100_000
        cc.on_congestion_event(make_event())
        wmax_first = cc._w_max
        # Second loss at a smaller window: fast convergence shrinks w_max
        cc.on_congestion_event(make_event())
        assert cc._w_max < wmax_first


class TestCubicGrowth:
    def prime(self, ctx, cwnd=100_000):
        """A CUBIC instance out of slow start with an epoch started."""
        cc = Cubic(ctx)
        ctx.set_rtt(100e-6)
        cc.cwnd = cwnd
        cc.ssthresh = cwnd
        cc.on_congestion_event(make_event())  # sets w_max, resets epoch
        return cc

    def test_concave_growth_toward_wmax(self, ctx):
        cc = self.prime(ctx)
        below = cc.cwnd
        for _ in range(50):
            ctx.advance(1e-3)
            cc.on_ack(make_event(acked=1460))
        assert cc.cwnd > below  # grows back toward w_max

    def test_growth_accelerates_past_plateau(self, ctx):
        """Far beyond K, one RTT's worth of ACKs grows far beyond Reno's
        one-segment-per-RTT."""
        cc = self.prime(ctx)
        cc.on_ack(make_event(acked=1460))  # first ACK opens the epoch
        ctx.advance(5.0)  # deep into the convex region
        before = cc.cwnd
        acked = 0
        while acked < before:  # one full window of ACKs
            cc.on_ack(make_event(acked=1460))
            acked += 1460
        assert cc.cwnd - before > 5 * 1460

    def test_slow_start_before_first_loss(self, ctx):
        cc = Cubic(ctx)
        before = cc.cwnd
        cc.on_ack(make_event(acked=before))
        assert cc.cwnd == 2 * before


class TestHystart:
    def test_exits_slow_start_on_rtt_growth(self, ctx):
        cc = Cubic(ctx)
        ctx.set_rtt(100e-6, min_rtt=100e-6)
        cc.cwnd = 32 * ctx.mss  # above HYSTART_LOW_WINDOW
        cc.on_ack(make_event(acked=1460, rtt=300e-6))  # RTT tripled
        assert not cc.in_slow_start

    def test_no_exit_below_low_window(self, ctx):
        cc = Cubic(ctx)
        ctx.set_rtt(100e-6, min_rtt=100e-6)
        cc.cwnd = 4 * ctx.mss
        cc.on_ack(make_event(acked=1460, rtt=500e-6))
        assert cc.in_slow_start

    def test_no_exit_on_flat_rtt(self, ctx):
        cc = Cubic(ctx)
        ctx.set_rtt(100e-6, min_rtt=100e-6)
        cc.cwnd = 32 * ctx.mss
        cc.on_ack(make_event(acked=1460, rtt=110e-6))
        assert cc.in_slow_start

    def test_rto_resets_epoch(self, ctx):
        cc = Cubic(ctx)
        cc.cwnd = 100_000
        cc.on_rto()
        assert cc._epoch_start < 0
        assert cc.cwnd == cc.min_cwnd


#: RFC 8312 §5.1's constants, stated here rather than imported, so a
#: changed constant in the module fails below
RFC_C = 0.4
RFC_BETA = 0.7


def w_cubic(t, w_max, w_start):
    """RFC 8312 §4.1's window ``t`` seconds into an epoch that started at
    ``w_start`` segments, with K = cbrt((W_max − w_start) / C); after a
    loss at W_max itself, w_start = βW_max and K is the RFC's
    cbrt(W_max (1 − β) / C)."""
    k = ((w_max - w_start) / RFC_C) ** (1.0 / 3.0)
    return RFC_C * (t - k) ** 3 + w_max


class TestCubicWindowFunction:
    """Between losses the window follows C(t − K)³ + W_max (RFC 8312
    §4.1), sampled at ACKs that each acknowledge a full window — at such
    an ACK CUBIC's per-ACK growth of (target − cwnd)/cwnd lands exactly on
    the target — and a loss below the previous W_max lowers it to
    (1 + β)/2 of the window at the loss (fast convergence, §4.6)."""

    STEP = 0.5  # seconds between sampled ACKs; K is 2-5 s below

    def epoch(self, ctx, cc, steps):
        """Open an epoch with one ACK, then ACK a full window every
        ``STEP`` seconds: the window in segments after each of those."""
        cc.on_ack(make_event(acked=int(cc.cwnd)))
        seen = []
        for _ in range(steps):
            ctx.advance(self.STEP)
            cc.on_ack(make_event(acked=int(cc.cwnd)))
            seen.append(cc.cwnd / ctx.mss)
        return seen

    def expected(self, steps, w_max, w_start):
        return [w_cubic(self.STEP * n, w_max, w_start) for n in range(1, steps + 1)]

    def after_first_loss(self, ctx, w_loss=100):
        cc = Cubic(ctx)
        cc.cwnd = cc.ssthresh = w_loss * ctx.mss
        cc.on_congestion_event(make_event())
        assert cc.cwnd / ctx.mss == pytest.approx(RFC_BETA * w_loss)
        return cc

    def test_the_window_follows_the_cubic_function(self, ctx):
        cc = self.after_first_loss(ctx)
        # 8 s: through the concave region, the plateau at K ≈ 4.2 s and
        # into the convex one
        assert self.epoch(ctx, cc, 16) == pytest.approx(
            self.expected(16, 100.0, RFC_BETA * 100), abs=0.01
        )

    def test_a_loss_below_the_previous_w_max_shrinks_it(self, ctx):
        cc = self.after_first_loss(ctx)
        w_loss = self.epoch(ctx, cc, 4)[-1]  # 2 s in: 95.6, below 100
        assert w_loss < 100
        cc.on_congestion_event(make_event())
        assert cc.cwnd / ctx.mss == pytest.approx(RFC_BETA * w_loss)
        w_max = w_loss * (1 + RFC_BETA) / 2
        assert self.epoch(ctx, cc, 16) == pytest.approx(
            self.expected(16, w_max, RFC_BETA * w_loss), abs=0.01
        )

    def test_a_loss_above_the_previous_w_max_keeps_the_window(self, ctx):
        cc = self.after_first_loss(ctx)
        w_loss = self.epoch(ctx, cc, 14)[-1]  # 7 s in, past W_max = 100
        assert w_loss > 105
        cc.on_congestion_event(make_event())
        assert self.epoch(ctx, cc, 16) == pytest.approx(
            self.expected(16, w_loss, RFC_BETA * w_loss), abs=0.01
        )
