"""Unit tests for BBR v1 and the BBR2-alpha variant."""

import pytest

from repro.cc.bbr import PROBE_BW_GAINS, Bbr
from repro.cc.bbr2 import BBR2_BETA, Bbr2
from repro.units import BITS_PER_BYTE
from tests.cc.conftest import make_event


def drive_to_steady(ctx, cc, rate_bps=10e9, rtt=100e-6, rounds=200):
    """Feed consistent delivery-rate samples until BBR settles."""
    ctx.set_rtt(rtt, min_rtt=rtt)
    for _ in range(rounds):
        ctx.advance(rtt)
        cc.on_ack(
            make_event(
                acked=14_600,
                rtt=rtt,
                rate=rate_bps,
                flight=int(rate_bps * rtt / BITS_PER_BYTE),
            )
        )


def startup_rounds(ctx, cc, rates, rtt=2.0**-13):
    """One ACK a round trip, each carrying the next delivery rate;
    returns the state after each round. The round trip (~122 us) is a
    power of two, so the clock's sums are exact and every ACK is a
    round."""
    ctx.set_rtt(rtt, min_rtt=rtt)
    states = []
    for rate in rates:
        ctx.advance(rtt)
        cc.on_ack(make_event(acked=14_600, rtt=rtt, rate=rate, flight=10**9))
        states.append(cc.state)
    return states


class TestBbrStateMachine:
    def test_starts_in_startup(self, ctx):
        assert Bbr(ctx).state == "STARTUP"

    def test_three_rounds_short_of_a_quarter_more_bandwidth_end_startup(self, ctx):
        # the full-pipe test: STARTUP ends after three rounds whose rate
        # is under 1.25x the last rate it recorded as growth; 20 % up on
        # that rate, three rounds running, is such a plateau
        states = startup_rounds(ctx, Bbr(ctx), [1e9, 1.2e9, 1.2e9, 1.2e9])
        assert states == ["STARTUP", "STARTUP", "STARTUP", "DRAIN"]

    def test_bandwidth_growing_thirty_percent_a_round_stays_in_startup(self, ctx):
        rates = [1e9 * 1.3**n for n in range(10)]
        assert set(startup_rounds(ctx, Bbr(ctx), rates)) == {"STARTUP"}

    def test_reaches_probe_bw(self, ctx):
        cc = Bbr(ctx)
        drive_to_steady(ctx, cc)
        assert cc.state == "PROBE_BW"

    def test_model_tracks_bandwidth(self, ctx):
        cc = Bbr(ctx)
        drive_to_steady(ctx, cc, rate_bps=5e9)
        assert cc.bw_bps == pytest.approx(5e9, rel=0.01)

    def test_bdp_from_model(self, ctx):
        cc = Bbr(ctx)
        drive_to_steady(ctx, cc, rate_bps=10e9, rtt=100e-6)
        assert cc.bdp_bytes == pytest.approx(10e9 * 100e-6 / 8, rel=0.01)

    def test_cwnd_is_two_bdp_in_probe_bw(self, ctx):
        cc = Bbr(ctx)
        drive_to_steady(ctx, cc)
        assert cc.cwnd == pytest.approx(2 * cc.bdp_bytes, rel=0.05)

    def test_pacing_rate_follows_gain_cycle(self, ctx):
        cc = Bbr(ctx)
        drive_to_steady(ctx, cc)
        rates = set()
        for _ in range(20):
            ctx.advance(100e-6)
            cc.on_ack(make_event(acked=14_600, rtt=100e-6, rate=10e9))
            rates.add(round(cc.pacing_rate_bps() / 1e9, 2))
        # the cycle should visit the probe (1.25) and drain (0.75) gains
        assert len(rates) >= 2

    def test_app_limited_samples_ignored(self, ctx):
        cc = Bbr(ctx)
        drive_to_steady(ctx, cc, rate_bps=10e9)
        before = cc.bw_bps
        ctx.advance(100e-6)
        cc.on_ack(make_event(acked=1460, rtt=100e-6, rate=50e9, app_limited=True))
        assert cc.bw_bps == pytest.approx(before, rel=0.01)


class TestBbrProbeBwCycle:
    """The gain cycle's purpose (Cardwell et al. 2017): the 1.25 phase
    probes for bandwidth by building a queue of about a quarter BDP,
    and the 0.75 phase right after it drains that queue, so inflight is
    back at the BDP before the cycle ends. Checked against a fluid
    bottleneck of steady rate: the queue grows at pacing rate minus
    bottleneck rate and never goes below empty; inflight is the BDP the
    pipe holds plus the queue."""

    def test_probe_inflight_returns_to_bdp_within_one_cycle(self, ctx):
        rate, rtt = 10e9, 100e-6
        cc = Bbr(ctx)
        drive_to_steady(ctx, cc, rate_bps=rate, rtt=rtt)
        assert cc.state == "PROBE_BW"
        bdp = rate * rtt / BITS_PER_BYTE
        dt = rtt / 20
        queue = 0.0

        def step():
            """dt at the pacing rate through the bottleneck, then its ACK."""
            nonlocal queue
            ctx.advance(dt)
            sent = cc.pacing_rate_bps() * dt / BITS_PER_BYTE
            queue = max(0.0, queue + sent - rate * dt / BITS_PER_BYTE)
            cc.on_ack(make_event(
                acked=int(rate * dt / BITS_PER_BYTE),
                rtt=rtt + queue * BITS_PER_BYTE / rate,
                rate=rate,
                flight=int(bdp + queue),
            ))
            return cc._cycle_index

        def step_until(done):
            for _ in range(40 * len(PROBE_BW_GAINS)):
                if done(step()):
                    return
            pytest.fail("the gain cycle stopped advancing")

        # out of any probe phase the warm-up ended in, into the next one
        step_until(lambda index: index != 0)
        step_until(lambda index: index == 0)
        phases, peak = [0], bdp + queue

        def cycle_over(index):
            nonlocal peak
            peak = max(peak, bdp + queue)
            if index != phases[-1]:
                if index == 0:
                    return True  # back at the probe phase
                phases.append(index)
            return False

        step_until(cycle_over)
        assert phases == list(range(len(PROBE_BW_GAINS)))
        assert PROBE_BW_GAINS[0] == 1.25
        assert peak >= 1.2 * bdp  # the probe built a queue...
        assert bdp + queue <= bdp  # ...and the cycle drained it


class TestBbrLossBehaviour:
    def test_v1_ignores_loss(self, ctx):
        cc = Bbr(ctx)
        drive_to_steady(ctx, cc)
        before = cc.cwnd
        cc.on_congestion_event(make_event())
        assert cc.cwnd == before

    def test_recovery_exit_restores_model_cwnd(self, ctx):
        cc = Bbr(ctx)
        drive_to_steady(ctx, cc)
        model_cwnd = cc.cwnd
        cc.cwnd = cc.min_cwnd
        cc.on_recovery_exit()
        assert cc.cwnd == pytest.approx(model_cwnd, rel=0.05)

    def test_rto_collapses(self, ctx):
        cc = Bbr(ctx)
        drive_to_steady(ctx, cc)
        cc.on_rto()
        assert cc.cwnd == cc.min_cwnd


class TestBbr2:
    def test_loss_cuts_inflight_ceiling(self, ctx):
        cc = Bbr2(ctx)
        drive_to_steady(ctx, cc)
        cc.on_congestion_event(make_event(flight=200_000))
        assert cc.inflight_hi == pytest.approx(200_000 * BBR2_BETA, rel=0.01)

    def test_ceiling_caps_cwnd(self, ctx):
        cc = Bbr2(ctx)
        drive_to_steady(ctx, cc)
        cc.on_congestion_event(make_event(flight=50_000))
        ctx.advance(100e-6)
        cc.on_ack(make_event(acked=14_600, rtt=100e-6, rate=10e9))
        assert cc.cwnd <= 50_000 * BBR2_BETA + cc.ctx.mss

    def test_ecn_trims_ceiling(self, ctx):
        cc = Bbr2(ctx)
        cc.inflight_hi = 100_000.0
        cc.on_ecn(make_event(ece=True))
        assert cc.inflight_hi == pytest.approx(90_000, rel=0.01)

    def test_alpha_knobs_active_by_default(self, ctx):
        cc = Bbr2(ctx)
        assert cc.alpha_quality
        assert cc.startup_gain < 2.885

    def test_alpha_stalls_periodically(self, ctx):
        from repro.cc.bbr2 import STALL_CYCLE_ROUNDS

        cc = Bbr2(ctx)
        drive_to_steady(ctx, cc)
        stalled = 0
        rates = []
        for _ in range(2 * STALL_CYCLE_ROUNDS):
            ctx.advance(100e-6)
            cc.on_ack(make_event(acked=14_600, rtt=100e-6, rate=10e9))
            rates.append(cc.pacing_rate_bps())
            if cc.in_probe_stall:
                stalled += 1
        assert stalled > 0
        assert min(rates) < 0.5 * max(rates)  # the stall trickle

    def test_mature_variant_never_stalls(self, ctx):
        from repro.cc.bbr2 import STALL_CYCLE_ROUNDS

        cc = Bbr2(ctx, alpha_quality=False)
        drive_to_steady(ctx, cc)
        for _ in range(2 * STALL_CYCLE_ROUNDS):
            ctx.advance(100e-6)
            cc.on_ack(make_event(acked=14_600, rtt=100e-6, rate=10e9))
            assert not cc.in_probe_stall

    def test_mature_variant_disables_knobs(self, ctx):
        cc = Bbr2(ctx, alpha_quality=False)
        assert cc.startup_gain == pytest.approx(2.885)

    def test_alpha_costs_more_per_ack(self, ctx):
        assert Bbr2.ack_cost_units > Bbr.ack_cost_units
