"""Unit tests for throughput probes."""

import pytest

from repro.apps.iperf import IperfSession, run_until_complete
from repro.apps.probe import ThroughputProbe
from repro.units import gbps


class TestProbe:
    def test_receiver_probe_tracks_goodput(self, sim, testbed):
        session = IperfSession(
            testbed, total_bytes=4_000_000, target_bitrate_bps=gbps(4.0)
        )
        probe = ThroughputProbe(sim, session.receiver, interval_s=1e-3)
        probe.start()
        run_until_complete(testbed, [session])
        probe.stop()
        busy = [v for v in probe.series.values if v > 0]
        assert busy, "probe recorded no throughput"
        assert sum(busy) / len(busy) == pytest.approx(gbps(4.0), rel=0.2)

    def test_sender_probe_uses_delivered_bytes(self, sim, testbed):
        session = IperfSession(testbed, total_bytes=2_000_000)
        probe = ThroughputProbe(sim, session.sender, interval_s=1e-3)
        probe.start()
        run_until_complete(testbed, [session])
        probe.stop()
        interval_bits = sum(v * 1e-3 for v in probe.series.values)
        assert interval_bits <= 2_000_000 * 8 * 1.01

    def test_samples_at_fixed_interval(self, sim, testbed):
        session = IperfSession(testbed, total_bytes=2_000_000)
        probe = ThroughputProbe(sim, session.receiver, interval_s=2e-3)
        probe.start()
        run_until_complete(testbed, [session])
        sim.run(until=sim.now + 10e-3)
        probe.stop()
        times = probe.series.times
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert all(d == pytest.approx(2e-3) for d in deltas)

    def test_zero_after_completion(self, sim, testbed):
        session = IperfSession(testbed, total_bytes=1_000_000)
        probe = ThroughputProbe(sim, session.receiver, interval_s=1e-3)
        probe.start()
        run_until_complete(testbed, [session])
        sim.run(until=sim.now + 5e-3)
        probe.stop()
        assert probe.series.values[-1] == 0.0

    def test_samples_cover_the_transfer(self, sim, testbed):
        # samples x interval / 8 add up to the bytes received by the
        # last sample, here after completion: the whole transfer
        session = IperfSession(testbed, total_bytes=5_000_000)
        probe = ThroughputProbe(sim, session.receiver, interval_s=1e-3)
        probe.start()
        run_until_complete(testbed, [session])
        sim.run(until=sim.now + 2e-3)
        probe.stop()
        received = sum(v * 1e-3 / 8 for v in probe.series.values)
        assert received == pytest.approx(5_000_000, rel=1e-12)
        assert session.receiver.bytes_received == 5_000_000
