"""Unit/integration tests for the iperf3-style session."""

import pytest

from repro.apps.iperf import IperfSession, run_until_complete
from repro.errors import ExperimentError
from repro.units import gbps


class TestBasicTransfer:
    def test_unlimited_transfer_completes(self, sim, testbed):
        session = IperfSession(testbed, total_bytes=2_000_000, cca="cubic")
        results = run_until_complete(testbed, [session])
        assert results[0].bytes_transferred == 2_000_000
        assert session.complete

    def test_result_before_completion_raises(self, sim, testbed):
        session = IperfSession(testbed, total_bytes=2_000_000)
        with pytest.raises(ExperimentError):
            session.result()

    def test_invalid_size_rejected(self, sim, testbed):
        with pytest.raises(ExperimentError):
            IperfSession(testbed, total_bytes=0)

    def test_invalid_bitrate_rejected(self, sim, testbed):
        with pytest.raises(ExperimentError):
            IperfSession(testbed, total_bytes=1000, target_bitrate_bps=-1.0)

    def test_flow_ids_unique(self, sim, testbed):
        a = IperfSession(testbed, total_bytes=1000)
        b = IperfSession(testbed, total_bytes=1000)
        assert a.flow_id != b.flow_id

    def test_result_fields(self, sim, testbed):
        session = IperfSession(testbed, total_bytes=2_000_000, cca="reno")
        result = run_until_complete(testbed, [session])[0]
        assert result.cca == "reno"
        assert result.duration_s > 0
        assert result.mean_throughput_bps > 0
        assert result.retransmissions >= 0


class TestRateLimiting:
    def test_rate_limited_throughput(self, sim, testbed):
        """A -b 2G flow averages ~2 Gb/s, not line rate."""
        session = IperfSession(
            testbed, total_bytes=2_000_000, cca="cubic",
            target_bitrate_bps=gbps(2.0),
        )
        result = run_until_complete(testbed, [session])[0]
        assert result.mean_throughput_bps == pytest.approx(gbps(2.0), rel=0.1)

    def test_uncap_releases_remaining(self, sim, testbed):
        session = IperfSession(
            testbed, total_bytes=5_000_000, cca="cubic",
            target_bitrate_bps=gbps(1.0),
        )
        sim.schedule(1e-3, session.uncap)
        result = run_until_complete(testbed, [session])[0]
        # with the cap lifted after 1 ms the flow finishes far sooner
        # than the 40 ms the 1 Gb/s cap would have required
        assert result.duration_s < 0.02


class TestScheduling:
    def test_delayed_start(self, sim, testbed):
        session = IperfSession(
            testbed, total_bytes=1_000_000, start_time=0.05
        )
        result = run_until_complete(testbed, [session])[0]
        assert result.start_time == pytest.approx(0.05)
        assert result.end_time > 0.05

    def test_manual_start(self, sim, testbed):
        session = IperfSession(testbed, total_bytes=1_000_000, start_time=None)
        sim.schedule(0.02, session.begin)
        result = run_until_complete(testbed, [session])[0]
        assert result.start_time == pytest.approx(0.02)

    def test_chained_sessions_serialize(self, sim, testbed):
        first = IperfSession(testbed, total_bytes=2_000_000)
        second = IperfSession(testbed, total_bytes=2_000_000, start_time=None)
        first.sender.on_complete(lambda _t: second.begin())
        results = run_until_complete(testbed, [first, second])
        assert results[1].start_time >= results[0].end_time

    def test_time_limit_enforced(self, sim, testbed):
        session = IperfSession(
            testbed, total_bytes=10_000_000, target_bitrate_bps=1e6
        )  # 80 s at 1 Mb/s
        with pytest.raises(ExperimentError):
            run_until_complete(testbed, [session], time_limit_s=0.05)


class TestEcnDefaults:
    def test_dctcp_ecn_on_by_default(self, sim, testbed):
        session = IperfSession(testbed, total_bytes=1000, cca="dctcp")
        assert session.sender.ecn_capable

    def test_cubic_ecn_off_by_default(self, sim, testbed):
        session = IperfSession(testbed, total_bytes=1000, cca="cubic")
        assert not session.sender.ecn_capable
