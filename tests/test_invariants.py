"""System-level invariants and property tests across the whole stack.

These tests don't target one module; they pin down properties any
network-energy simulator must satisfy: determinism, byte conservation,
energy monotonicity, measurement-window additivity.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import calibration as cal
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import run_once
from repro.net.topology import TestbedConfig, build_testbed
from repro.apps.iperf import IperfSession, run_until_complete
from repro.sim.engine import Simulator


class TestDeterminism:
    def test_identical_seeds_identical_runs(self):
        scenario = Scenario("det", flows=[FlowSpec(3_000_000, cca="cubic")])
        a = run_once(scenario, seed=42)
        b = run_once(scenario, seed=42)
        assert a.energy_j == b.energy_j
        assert a.duration_s == b.duration_s
        assert a.total_retransmissions == b.total_retransmissions

    def test_event_counts_deterministic(self):
        counts = []
        for _ in range(2):
            sim = Simulator()
            testbed = build_testbed(sim, TestbedConfig())
            session = IperfSession(testbed, total_bytes=2_000_000)
            run_until_complete(testbed, [session])
            counts.append(sim.events_executed)
        assert counts[0] == counts[1]


class TestByteConservation:
    @pytest.mark.parametrize("cca", ["cubic", "baseline", "bbr"])
    def test_receiver_gets_exactly_the_payload(self, cca):
        sim = Simulator()
        testbed = build_testbed(sim, TestbedConfig())
        session = IperfSession(testbed, total_bytes=5_000_000, cca=cca)
        run_until_complete(testbed, [session], time_limit_s=60)
        assert session.receiver.bytes_received == 5_000_000
        assert session.receiver.rcv_nxt == 5_000_000

    def test_sent_equals_payload_plus_retransmissions(self):
        sim = Simulator()
        testbed = build_testbed(sim, TestbedConfig())
        session = IperfSession(testbed, total_bytes=5_000_000, cca="baseline")
        run_until_complete(testbed, [session], time_limit_s=60)
        sent = session.sender.counters.get("bytes_sent")
        assert sent >= 5_000_000
        # retransmitted bytes = sent - payload (within one MSS of slack)
        retx_segments = session.sender.counters.get("retransmits")
        assert sent - 5_000_000 <= (retx_segments + 1) * session.sender.mss


class TestEnergyInvariants:
    def test_energy_at_least_idle_floor(self):
        """No run can consume less than idle power x duration."""
        m = run_once(
            Scenario("floor", flows=[FlowSpec(2_000_000)], packages=1)
        )
        assert m.energy_j >= cal.P_IDLE_W * m.duration_s * 0.98

    def test_energy_additive_across_packages(self):
        one = run_once(
            Scenario(
                "p1", flows=[FlowSpec(2_000_000)], packages=1,
                power_noise_sigma=0.0, start_jitter_s=0.0,
            )
        )
        three = run_once(
            Scenario(
                "p3", flows=[FlowSpec(2_000_000)], packages=3,
                power_noise_sigma=0.0, start_jitter_s=0.0,
            )
        )
        extra = three.energy_j - one.energy_j
        assert extra == pytest.approx(
            2 * cal.P_IDLE_W * one.duration_s, rel=0.02
        )

    def test_more_bytes_more_energy(self):
        small = run_once(
            Scenario("s", flows=[FlowSpec(2_000_000)], packages=1)
        )
        large = run_once(
            Scenario("l", flows=[FlowSpec(8_000_000)], packages=1)
        )
        assert large.energy_j > small.energy_j

    @given(size_mb=st.integers(min_value=1, max_value=8))
    @settings(max_examples=8, deadline=None)
    def test_energy_scales_roughly_linearly(self, size_mb):
        """Doubling the transfer roughly doubles the energy (steady
        state dominates at these sizes)."""
        base = run_once(
            Scenario(
                "b", flows=[FlowSpec(size_mb * 1_000_000)], packages=1,
                power_noise_sigma=0.0, start_jitter_s=0.0,
            )
        )
        double = run_once(
            Scenario(
                "d", flows=[FlowSpec(2 * size_mb * 1_000_000)], packages=1,
                power_noise_sigma=0.0, start_jitter_s=0.0,
            )
        )
        ratio = double.energy_j / base.energy_j
        assert 1.5 <= ratio <= 2.6


class TestMeasurementWindow:
    def test_power_between_idle_and_busy(self):
        m = run_once(
            Scenario("w", flows=[FlowSpec(5_000_000)], packages=1)
        )
        assert cal.P_IDLE_W * 0.95 <= m.average_power_w <= 60.0

    def test_duration_covers_all_flows(self):
        scenario = Scenario(
            "multi",
            flows=[FlowSpec(2_000_000), FlowSpec(2_000_000)],
            policy="serialized",
        )
        m = run_once(scenario)
        assert m.duration_s >= m.completion_time_s * 0.999
