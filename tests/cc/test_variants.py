"""Unit tests for Reno, Scalable, HighSpeed, Westwood and Vegas."""

import pytest

from repro.cc.highspeed import HS_W_LOW, HighSpeed, hstcp_a, hstcp_b
from repro.cc.reno import Reno
from repro.cc.scalable import Scalable
from repro.cc.vegas import VEGAS_ALPHA, VEGAS_BETA, Vegas
from repro.cc.westwood import Westwood
from repro.units import BITS_PER_BYTE
from tests.cc.conftest import make_event


class TestReno:
    def test_name_and_cost(self, ctx):
        cc = Reno(ctx)
        assert cc.name == "reno"
        assert cc.ack_cost_units > 0

    def test_halving(self, ctx):
        cc = Reno(ctx)
        cc.cwnd = 80_000
        cc.ssthresh = 80_000
        cc.on_congestion_event(make_event())
        assert cc.cwnd == pytest.approx(40_000)


class TestScalable:
    def test_mimd_increase_proportional(self, ctx):
        cc = Scalable(ctx)
        cc.ssthresh = cc.cwnd  # exit slow start
        before = cc.cwnd
        cc.on_ack(make_event(acked=10_000))
        assert cc.cwnd - before == pytest.approx(100, abs=2)  # 0.01/byte

    def test_gentle_decrease(self, ctx):
        cc = Scalable(ctx)
        cc.cwnd = 80_000
        cc.ssthresh = 80_000
        cc.on_congestion_event(make_event())
        assert cc.cwnd == pytest.approx(70_000)  # 1/8 cut


class TestHighSpeedFunctions:
    def test_reno_region(self):
        assert hstcp_b(10) == 0.5
        assert hstcp_a(10) == 1.0

    def test_b_decreases_with_window(self):
        assert hstcp_b(1000) < hstcp_b(100)
        assert hstcp_b(83000) == pytest.approx(0.1, abs=0.01)

    def test_a_increases_with_window(self):
        assert hstcp_a(1000) > hstcp_a(100) > hstcp_a(HS_W_LOW)

    def test_aggressive_growth_at_large_window(self, ctx):
        cc = HighSpeed(ctx)
        cc.ssthresh = 1  # force congestion avoidance
        cc.cwnd = 1000 * ctx.mss
        before = cc.cwnd
        acked = 0
        while acked < before:  # one window of ACKs
            cc.on_ack(make_event(acked=10 * ctx.mss))
            acked += 10 * ctx.mss
        grown = (cc.cwnd - before) / ctx.mss
        assert grown > 5  # far faster than Reno's 1 segment/RTT

    def test_gentle_decrease_at_large_window(self, ctx):
        cc = HighSpeed(ctx)
        cc.cwnd = 1000 * ctx.mss
        cc.ssthresh = cc.cwnd
        cc.on_congestion_event(make_event())
        assert cc.cwnd > 1000 * ctx.mss * 0.5  # cuts less than half


class TestWestwood:
    def test_bandwidth_estimate_from_acks(self, ctx):
        cc = Westwood(ctx)
        for _ in range(20):
            ctx.advance(1e-3)
            cc.on_ack(make_event(acked=12_500))  # 12.5 KB per ms = 100 Mb/s
        assert cc._bwe_bps == pytest.approx(100e6, rel=0.2)

    def test_loss_sets_window_from_bwe(self, ctx):
        cc = Westwood(ctx)
        ctx.set_rtt(10e-3, min_rtt=10e-3)
        for _ in range(50):
            ctx.advance(1e-3)
            cc.on_ack(make_event(acked=12_500))
        cc.on_congestion_event(make_event())
        expected = cc._bwe_bps * 10e-3 / BITS_PER_BYTE
        assert cc.cwnd == pytest.approx(expected, rel=0.05)

    def test_falls_back_to_reno_without_estimate(self, ctx):
        cc = Westwood(ctx)
        cc.cwnd = 80_000
        cc.ssthresh = 80_000
        cc.on_congestion_event(make_event())
        assert cc.cwnd == pytest.approx(40_000)

    def test_rto_uses_estimate_for_ssthresh(self, ctx):
        cc = Westwood(ctx)
        ctx.set_rtt(10e-3, min_rtt=10e-3)
        for _ in range(50):
            ctx.advance(1e-3)
            cc.on_ack(make_event(acked=12_500))
        cc.on_rto()
        assert cc.cwnd == cc.min_cwnd
        assert cc.ssthresh > cc.min_cwnd


class TestVegas:
    def prime(self, ctx):
        cc = Vegas(ctx)
        cc.ssthresh = cc.cwnd  # exit slow start
        ctx.set_rtt(1e-3, min_rtt=1e-3)
        return cc

    def test_grows_when_queue_small(self, ctx):
        cc = self.prime(ctx)
        before = cc.cwnd
        ctx.advance(10e-3)
        cc.on_ack(make_event(acked=1460, rtt=1.01e-3))  # diff ~ 0 < alpha
        assert cc.cwnd == before + ctx.mss

    def test_shrinks_when_queue_large(self, ctx):
        cc = self.prime(ctx)
        cc.cwnd = 100 * ctx.mss
        before = cc.cwnd
        ctx.advance(10e-3)
        # rtt 2x base => diff = cwnd/2 segments >> beta
        cc.on_ack(make_event(acked=1460, rtt=2e-3))
        assert cc.cwnd == before - ctx.mss

    def test_holds_between_alpha_and_beta(self, ctx):
        cc = self.prime(ctx)
        cwnd_seg = 100.0
        cc.cwnd = int(cwnd_seg * ctx.mss)
        # choose rtt so diff = 3 segments (between alpha=2 and beta=4)
        target_diff = (VEGAS_ALPHA + VEGAS_BETA) / 2
        rtt = 1e-3 / (1 - target_diff / cwnd_seg)
        before = cc.cwnd
        ctx.advance(10e-3)
        cc.on_ack(make_event(acked=1460, rtt=rtt))
        assert cc.cwnd == before

    def test_adjusts_at_most_once_per_rtt(self, ctx):
        cc = self.prime(ctx)
        before = cc.cwnd
        ctx.advance(10e-3)
        cc.on_ack(make_event(acked=1460, rtt=1.01e-3))
        cc.on_ack(make_event(acked=1460, rtt=1.01e-3))  # same instant
        assert cc.cwnd == before + ctx.mss  # only one adjustment
