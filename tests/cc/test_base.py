"""Unit tests for the CCA base class (Reno-style slow start + AIMD)."""

import math

import pytest

from repro.cc.base import INITIAL_WINDOW_SEGMENTS, CongestionControl
from tests.cc.conftest import make_event


class TestInitialState:
    def test_initial_window(self, ctx):
        cc = CongestionControl(ctx)
        assert cc.cwnd == INITIAL_WINDOW_SEGMENTS * ctx.mss

    def test_ssthresh_starts_at_cached_metric(self, ctx):
        """Linux tcp_metrics caching: slow start has a sane exit point."""
        from repro.cc.base import INITIAL_SSTHRESH_SEGMENTS

        cc = CongestionControl(ctx)
        assert cc.ssthresh == INITIAL_SSTHRESH_SEGMENTS * ctx.mss
        assert math.isfinite(cc.ssthresh)
        assert cc.in_slow_start


class TestSlowStart:
    def test_exponential_growth(self, ctx):
        cc = CongestionControl(ctx)
        before = cc.cwnd
        cc.on_ack(make_event(acked=before))  # a full window of ACKs
        assert cc.cwnd == 2 * before

    def test_slow_start_stops_at_ssthresh(self, ctx):
        cc = CongestionControl(ctx)
        cc.ssthresh = cc.cwnd + 100
        cc.on_ack(make_event(acked=1460))
        # 100 bytes of slow start + remainder in congestion avoidance
        assert cc.cwnd >= cc.ssthresh
        assert not cc.in_slow_start

    def test_charge_accounted(self, ctx):
        cc = CongestionControl(ctx)
        cc.on_ack(make_event())
        assert ctx.charged == pytest.approx(cc.ack_cost_units)


class TestCongestionAvoidance:
    def test_linear_growth_rate(self, ctx):
        cc = CongestionControl(ctx)
        cc.ssthresh = cc.cwnd  # leave slow start
        start = cc.cwnd
        # One full window of ACKs adds at most one MSS (RFC 5681 §3.1:
        # cwnd grows by <= 1 SMSS per RTT) and, ACK by ACK, nearly that.
        acked = 0
        while acked < start:
            cc.on_ack(make_event(acked=1460))
            acked += 1460
        assert start + 0.9 * ctx.mss <= cc.cwnd <= start + 1.0 * ctx.mss


class TestLossResponse:
    def test_halving_on_congestion_event(self, ctx):
        cc = CongestionControl(ctx)
        cc.cwnd = 100_000
        cc.ssthresh = 100_000
        cc.on_congestion_event(make_event())
        assert cc.cwnd == pytest.approx(50_000)
        assert cc.ssthresh == pytest.approx(50_000)

    def test_halving_floors_ssthresh_at_two_segments(self, ctx):
        # RFC 5681 eq. 4: ssthresh = max(FlightSize / 2, 2 * SMSS)
        cc = CongestionControl(ctx)
        cc.cwnd = 3 * ctx.mss
        cc.ssthresh = 3 * ctx.mss
        cc.on_congestion_event(make_event())
        assert cc.ssthresh == 2 * ctx.mss

    def test_rto_collapses_to_min(self, ctx):
        cc = CongestionControl(ctx)
        cc.cwnd = 100_000
        cc.on_rto()
        assert cc.cwnd == cc.min_cwnd
        assert cc.ssthresh == pytest.approx(50_000)

    def test_cwnd_never_below_min(self, ctx):
        cc = CongestionControl(ctx)
        cc.cwnd = cc.min_cwnd
        for _ in range(5):
            cc.on_congestion_event(make_event())
        assert cc.cwnd >= cc.min_cwnd

    def test_recovery_exit_sets_ssthresh(self, ctx):
        cc = CongestionControl(ctx)
        cc.cwnd = 100_000
        cc.on_congestion_event(make_event())
        cc.cwnd = 80_000  # inflated during recovery
        cc.on_recovery_exit()
        assert cc.cwnd == pytest.approx(cc.ssthresh)

    def test_default_ecn_behaves_like_loss(self, ctx):
        cc = CongestionControl(ctx)
        cc.cwnd = 100_000
        cc.ssthresh = 100_000
        cc.on_ecn(make_event(ece=True))
        assert cc.cwnd == pytest.approx(50_000)
