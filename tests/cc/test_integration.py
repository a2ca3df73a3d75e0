"""Integration: every registered CCA completes a transfer on the testbed."""

import pytest

from repro.apps.iperf import IperfSession, run_until_complete
from repro.cc.registry import PAPER_ALGORITHMS
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import run_once
from repro.net.topology import TestbedConfig, build_testbed
from repro.sim.engine import Simulator
from repro.units import msec

TRANSFER = 5_000_000  # 5 MB keeps each case fast


@pytest.mark.parametrize("cca", PAPER_ALGORITHMS)
def test_cca_completes_transfer(cca):
    sim = Simulator()
    testbed = build_testbed(sim, TestbedConfig())
    session = IperfSession(testbed, total_bytes=TRANSFER, cca=cca)
    result = run_until_complete(testbed, [session], time_limit_s=30.0)[0]
    assert result.bytes_transferred == TRANSFER
    assert result.duration_s > 0
    # even the baseline should beat 1 Gb/s on a 10 Gb/s path
    assert result.mean_throughput_bps > 1e9


@pytest.mark.parametrize("cca", ["cubic", "bbr", "dctcp"])
def test_fast_ccas_approach_line_rate(cca):
    sim = Simulator()
    testbed = build_testbed(sim, TestbedConfig())
    session = IperfSession(testbed, total_bytes=20_000_000, cca=cca)
    result = run_until_complete(testbed, [session], time_limit_s=30.0)[0]
    assert result.mean_throughput_bps > 6e9


def test_dctcp_uses_ecn_not_loss():
    sim = Simulator()
    testbed = build_testbed(sim, TestbedConfig())
    session = IperfSession(testbed, total_bytes=20_000_000, cca="dctcp")
    run_until_complete(testbed, [session], time_limit_s=30.0)
    assert testbed.bottleneck.queue.counters.get("ecn_marks") > 0
    assert session.sender.counters.get("retransmits") == 0


def test_baseline_is_lossy():
    sim = Simulator()
    testbed = build_testbed(sim, TestbedConfig())
    session = IperfSession(testbed, total_bytes=20_000_000, cca="baseline")
    result = run_until_complete(testbed, [session], time_limit_s=60.0)[0]
    assert result.retransmissions > 100


def jain_index(rates):
    """Jain's index, (sum x)^2 / (n * sum x^2): 1 for an even split, 1/n
    when one flow takes everything."""
    return sum(rates) ** 2 / (len(rates) * sum(x * x for x in rates))


def run_pair(cca, transfer_bytes):
    """Two flows of one CCA started together, goodput sampled every ms."""
    flows = [FlowSpec(transfer_bytes, cca=cca), FlowSpec(transfer_bytes, cca=cca)]
    return run_once(Scenario(f"two-{cca}", flows=flows, probe_interval_s=msec(1.0)))


def test_two_cubic_flows_share_fairly():
    """Competing CUBIC flows split the bottleneck roughly evenly."""
    m = run_pair("cubic", 20_000_000)
    rates = sorted(r.mean_throughput_bps for r in m.flow_results)
    assert rates[0] > 0.25 * rates[1]  # no starvation
    assert jain_index(rates) > 0.8


def test_two_reno_flows_share_the_contended_window():
    """While both Reno flows run, neither takes three quarters of it."""
    m = run_pair("reno", 6_000_000)
    first_done = min(r.end_time for r in m.flow_results)
    bits = [
        sum(value for time, value in zip(s.times, s.values) if time < first_done)
        for s in m.throughput_series.values()
    ]
    assert 0.25 <= bits[0] / sum(bits) <= 0.75


def test_mtu_1500_is_pps_bound():
    sim = Simulator()
    testbed = build_testbed(sim, TestbedConfig(mtu_bytes=1500))
    session = IperfSession(testbed, total_bytes=10_000_000, cca="cubic")
    result = run_until_complete(testbed, [session], time_limit_s=30.0)[0]
    assert result.mean_throughput_bps < 6e9  # well below line rate


def test_bbr2_slower_than_bbr():
    """The alpha release's conservatism shows up as a longer FCT."""
    durations = {}
    for cca in ("bbr", "bbr2"):
        sim = Simulator()
        testbed = build_testbed(sim, TestbedConfig())
        session = IperfSession(testbed, total_bytes=20_000_000, cca=cca)
        durations[cca] = run_until_complete(
            testbed, [session], time_limit_s=30.0
        )[0].duration_s
    assert durations["bbr2"] > durations["bbr"]
