"""Unit tests for links and egress interfaces."""

import pytest

from repro.errors import NetworkConfigError
from repro.net.link import Interface, Link
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.units import BITS_PER_BYTE, gbps


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def make_packet(payload=1000):
    return Packet(flow_id=1, src="a", dst="b", payload_bytes=payload)


def serialization_time(packet, rate_bps=gbps(10)):
    return packet.wire_bytes * BITS_PER_BYTE / rate_bps


class TestLink:
    def test_serialization_time(self, sim):
        # a link has no behaviour of its own: the interface feeding it
        # holds it for the packet's wire time
        link = Link(sim, rate_bps=gbps(10), delay_s=0.0)
        sink = Sink()
        link.connect(sink)
        p = make_packet(1000)
        Interface(sim, DropTailQueue(10_000), link).enqueue(p)
        sim.run()
        assert sim.now == pytest.approx(serialization_time(p))
        assert sink.received == [p]
        assert link.counters.get("tx_packets") == 1
        assert link.counters.get("tx_bytes") == p.wire_bytes

    def test_invalid_rate_and_delay(self, sim):
        with pytest.raises(NetworkConfigError):
            Link(sim, rate_bps=0, delay_s=0.0)
        with pytest.raises(NetworkConfigError):
            Link(sim, rate_bps=1e9, delay_s=-1.0)

    @pytest.mark.parametrize(
        "rate_bps, delay_s",
        [
            (float("nan"), 0.0),
            (1e9, float("nan")),
            (float("inf"), 0.0),
            (1e9, float("inf")),
        ],
    )
    def test_nan_and_infinite_rate_are_invalid(self, sim, rate_bps, delay_s):
        # NaN compares false with everything, so `rate_bps <= 0` let it in;
        # an infinite rate would make a frame finish the instant it starts,
        # an infinite delay deliver it never
        with pytest.raises(NetworkConfigError):
            Link(sim, rate_bps=rate_bps, delay_s=delay_s)

    def test_no_sink_raises(self, sim):
        # at the first enqueue, not one serialisation later in the run loop
        link = Link(sim, rate_bps=1e9, delay_s=0.0)
        iface = Interface(sim, DropTailQueue(10_000), link)
        with pytest.raises(NetworkConfigError, match="no sink connected"):
            iface.enqueue(make_packet())
        assert sim.pending_events == 0
        assert link.counters.get("tx_packets") == 0


class TestInterface:
    def make(self, sim, rate=gbps(10), delay=10e-6, capacity=100_000):
        link = Link(sim, rate, delay)
        sink = Sink()
        link.connect(sink)
        iface = Interface(sim, DropTailQueue(capacity), link)
        return iface, sink

    def test_single_packet_delivery_time(self, sim):
        iface, sink = self.make(sim)
        p = make_packet(1000)
        iface.enqueue(p)
        sim.run()
        ser = serialization_time(p)
        assert sim.now == pytest.approx(ser + 10e-6)
        assert sink.received == [p]

    def test_back_to_back_serialization(self, sim):
        iface, sink = self.make(sim)
        a, b = make_packet(1000), make_packet(1000)
        iface.enqueue(a)
        iface.enqueue(b)
        sim.run()
        assert sink.received == [a, b]
        ser = serialization_time(a)
        # second packet waits for the first to finish serializing
        assert sim.now == pytest.approx(2 * ser + 10e-6)

    def test_queue_overflow_drops(self, sim):
        iface, sink = self.make(sim, capacity=1100)
        sent = [iface.enqueue(make_packet(1000)) for _ in range(4)]
        sim.run()
        # one in flight + one queued; the rest dropped
        assert sent.count(True) == 2
        assert len(sink.received) == 2
        assert iface.counters.get("drops") == 2
        assert iface.counters.get("tx_packets") == 2

    def test_busy_flag(self, sim):
        iface, _sink = self.make(sim)
        assert not iface.busy
        iface.enqueue(make_packet())
        assert iface.busy
        sim.run()
        assert not iface.busy
