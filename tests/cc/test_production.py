"""Unit + integration tests for Swift, DCQCN and HPCC (paper §5's
production-algorithm wish list)."""

import pytest

from repro.apps.iperf import IperfSession, run_until_complete
from repro.cc.base import INITIAL_WINDOW_SEGMENTS
from repro.cc.dcqcn import DCQCN_START_RATE_BPS, DCQCN_UPDATE_PERIOD_S, Dcqcn
from repro.cc.hpcc import Hpcc
from repro.cc.swift import SWIFT_BASE_TARGET_S, Swift
from repro.net.topology import TestbedConfig, build_testbed
from repro.sim.engine import Simulator
from tests.cc.conftest import make_event
from tests.conftest import count_calls


class TestSwiftUnit:
    def test_target_includes_flow_scaling(self, ctx):
        cc = Swift(ctx)
        cc.cwnd = 4 * ctx.mss
        small_target = cc.target_delay()
        cc.cwnd = 400 * ctx.mss
        large_target = cc.target_delay()
        assert small_target > large_target >= SWIFT_BASE_TARGET_S

    def test_grows_below_target(self, ctx):
        cc = Swift(ctx)
        ctx.set_rtt(50e-6, min_rtt=50e-6)
        before = cc.cwnd
        cc.on_ack(make_event(acked=1460, rtt=40e-6))
        assert cc.cwnd > before

    def test_shrinks_above_target(self, ctx):
        cc = Swift(ctx)
        ctx.set_rtt(50e-6, min_rtt=50e-6)
        cc.cwnd = 100 * ctx.mss
        before = cc.cwnd
        cc.on_ack(make_event(acked=1460, rtt=10e-3))  # way over target
        assert cc.cwnd < before

    def test_decrease_at_most_once_per_rtt(self, ctx):
        cc = Swift(ctx)
        ctx.set_rtt(50e-6, min_rtt=50e-6)
        cc.cwnd = 100 * ctx.mss
        cc.on_ack(make_event(acked=1460, rtt=10e-3))
        after_first = cc.cwnd
        cc.on_ack(make_event(acked=1460, rtt=10e-3))  # same instant
        assert cc.cwnd == after_first

    def test_loss_bounded_decrease(self, ctx):
        cc = Swift(ctx)
        cc.cwnd = 100_000
        cc.on_congestion_event(make_event())
        assert cc.cwnd == pytest.approx(50_000)


class TestDcqcnUnit:
    def test_starts_at_line_rate(self, ctx):
        assert Dcqcn(ctx).rc_bps == DCQCN_START_RATE_BPS

    def test_cnp_cuts_rate(self, ctx):
        cc = Dcqcn(ctx)
        cc.on_ack(make_event(ece=True, marked=1000))
        assert cc.rc_bps < DCQCN_START_RATE_BPS
        assert cc.rt_bps == DCQCN_START_RATE_BPS

    def test_cnp_reaction_rate_limited(self, ctx):
        cc = Dcqcn(ctx)
        cc.on_ack(make_event(ece=True))
        rate_after_first = cc.rc_bps
        cc.on_ack(make_event(ece=True))  # same instant: ignored
        assert cc.rc_bps == rate_after_first

    def test_recovers_toward_target(self, ctx):
        cc = Dcqcn(ctx)
        cc.on_ack(make_event(ece=True))
        cut = cc.rc_bps
        for _ in range(50):
            ctx.advance(2 * DCQCN_UPDATE_PERIOD_S)
            cc.on_ack(make_event())
        assert cc.rc_bps > cut
        assert cc.rc_bps <= DCQCN_START_RATE_BPS

    def test_alpha_decays_when_quiet(self, ctx):
        cc = Dcqcn(ctx)
        cc.alpha = 1.0
        for _ in range(50):
            ctx.advance(2 * DCQCN_UPDATE_PERIOD_S)
            cc.on_ack(make_event())
        assert cc.alpha < 0.1

    def test_paces_at_rc(self, ctx):
        cc = Dcqcn(ctx)
        assert cc.pacing_rate_bps() == cc.rc_bps


class TestHpccUnit:
    def int_event(self, qlen=0, tx_bytes=1e6, ts=1e-3, rate=10e9, **kw):
        return make_event(
            acked=1460,
            rtt=50e-6,
            **kw,
        ), dict(
            int_qlen_bytes=qlen,
            int_tx_bytes=tx_bytes,
            int_timestamp=ts,
            int_link_rate_bps=rate,
        )

    def ack_with_int(self, cc, ctx, qlen, tx_bytes, ts):
        event = make_event(acked=1460, rtt=50e-6)
        event.int_qlen_bytes = qlen
        event.int_tx_bytes = tx_bytes
        event.int_timestamp = ts
        event.int_link_rate_bps = 10e9
        cc.on_ack(event)

    def test_holds_window_without_int(self, ctx):
        cc = Hpcc(ctx)
        before = cc.cwnd
        cc.on_ack(make_event(acked=1460, rtt=50e-6))
        assert cc.cwnd == before

    def test_underutilized_link_grows_window(self, ctx):
        cc = Hpcc(ctx)
        ctx.set_rtt(50e-6, min_rtt=40e-6)
        before = cc.cwnd
        # empty queue, low tx rate -> U << eta -> multiplicative growth
        self.ack_with_int(cc, ctx, qlen=0, tx_bytes=1_000, ts=1e-3)
        ctx.advance(1e-3)
        self.ack_with_int(cc, ctx, qlen=0, tx_bytes=2_000, ts=2e-3)
        assert cc.cwnd > before

    def test_congested_link_shrinks_window(self, ctx):
        cc = Hpcc(ctx)
        ctx.set_rtt(50e-6, min_rtt=40e-6)
        cc.cwnd = 200 * ctx.mss
        cc.w_c = float(cc.cwnd)
        # deep queue + full-rate transmission -> U >> eta
        self.ack_with_int(cc, ctx, qlen=500_000, tx_bytes=1e6, ts=1e-3)
        ctx.advance(1e-3)
        self.ack_with_int(cc, ctx, qlen=500_000, tx_bytes=1e6 + 1.25e6, ts=2e-3)
        assert cc.cwnd < 200 * ctx.mss  # U > eta

    def test_window_floor_is_written_out_not_called(self, ctx):
        # the grid cell behind CCA_FRAMES has no INT, so hpcc's pin there
        # never saw the clamp: with INT an ACK is on_ack + _utilization
        cc = Hpcc(ctx)
        ctx.set_rtt(50e-6, min_rtt=40e-6)
        cc.w_c = float(ctx.mss)
        event = make_event(acked=1460, rtt=50e-6)
        event.int_qlen_bytes = 500_000
        event.int_tx_bytes = 1e6
        event.int_timestamp = 1e-3
        event.int_link_rate_bps = 10e9
        _, calls = count_calls(cc.on_ack, event)
        assert cc.cwnd == cc.min_cwnd
        assert sorted(
            code.co_name for code in calls if "/repro/cc/" in code.co_filename
        ) == ["_utilization", "on_ack"]

    def test_loss_halves_reference(self, ctx):
        cc = Hpcc(ctx)
        cc.w_c = 100_000.0
        cc.on_congestion_event(make_event())
        assert cc.w_c == pytest.approx(50_000.0)


@pytest.mark.parametrize("cca", ["swift", "dcqcn", "hpcc"])
def test_production_cca_completes_at_high_rate(cca):
    sim = Simulator()
    testbed = build_testbed(
        sim, TestbedConfig(int_telemetry=(cca == "hpcc"))
    )
    session = IperfSession(testbed, total_bytes=10_000_000, cca=cca)
    result = run_until_complete(testbed, [session], time_limit_s=30.0)[0]
    assert result.mean_throughput_bps > 7e9
    assert result.retransmissions == 0  # their design goal


def test_hpcc_receives_int_telemetry():
    sim = Simulator()
    testbed = build_testbed(sim, TestbedConfig(int_telemetry=True))
    session = IperfSession(testbed, total_bytes=5_000_000, cca="hpcc")
    run_until_complete(testbed, [session], time_limit_s=30.0)
    # without utilization samples HPCC holds its initial window
    sender = session.sender
    assert sender.cca.cwnd != INITIAL_WINDOW_SEGMENTS * sender.mss


def test_production_algorithms_registered():
    from repro.cc.registry import PRODUCTION_ALGORITHMS, get_class

    assert PRODUCTION_ALGORITHMS == ("swift", "dcqcn", "hpcc")
    for name in PRODUCTION_ALGORITHMS:
        assert get_class(name).name == name


class TestEnergyBenchmark:
    """§5's standardized CC energy benchmark: the production algorithms
    beside cubic and the no-CC baseline, 20 MB, two repetitions each."""

    @pytest.fixture(scope="class")
    def results(self):
        from repro.cc.registry import PRODUCTION_ALGORITHMS
        from repro.harness.experiment import FlowSpec, Scenario
        from repro.harness.runner import run_repeated

        return {
            cca: run_repeated(
                Scenario(
                    f"prod-{cca}", flows=[FlowSpec(20_000_000, cca=cca)],
                    packages=1, int_telemetry=(cca == "hpcc"),
                ),
                repetitions=2,
            )
            for cca in ("cubic", "baseline") + PRODUCTION_ALGORITHMS
        }

    @pytest.mark.parametrize("cca", ["swift", "dcqcn", "hpcc"])
    def test_lands_in_the_efficient_cluster_without_loss(self, results, cca):
        energy_j = results[cca].mean_energy_j
        assert energy_j < results["baseline"].mean_energy_j
        assert energy_j < 1.25 * results["cubic"].mean_energy_j
        assert results[cca].mean_retransmissions == 0
