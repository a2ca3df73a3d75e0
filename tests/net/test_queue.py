"""Unit tests for DropTail and ECN-marking queues."""

import pytest

from repro.errors import NetworkConfigError
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue, EcnQueue


def make_packet(payload=1000, ecn=False, flow=1):
    return Packet(
        flow_id=flow, src="a", dst="b", payload_bytes=payload, ecn_capable=ecn
    )


class TestDropTailQueue:
    def test_fifo_order(self):
        q = DropTailQueue(10_000)
        first, second = make_packet(), make_packet()
        assert q.enqueue(first) and q.enqueue(second)
        assert q.dequeue() is first
        assert q.dequeue() is second
        assert q.dequeue() is None

    def test_occupancy_tracks_bytes(self):
        q = DropTailQueue(10_000)
        p = make_packet(500)
        q.enqueue(p)
        assert q.occupancy_bytes == p.size_bytes
        q.dequeue()
        assert q.occupancy_bytes == 0

    def test_drop_when_full(self):
        q = DropTailQueue(capacity_bytes=1500)
        assert q.enqueue(make_packet(1000))       # 1040 bytes
        assert not q.enqueue(make_packet(1000))   # would exceed 1500
        assert q.counters.get("drops") == 1

    def test_small_packet_fits_after_big_drop(self):
        """Byte-based DropTail: a smaller packet can still fit."""
        q = DropTailQueue(capacity_bytes=1500)
        q.enqueue(make_packet(1000))
        assert not q.enqueue(make_packet(1000))
        assert q.enqueue(make_packet(100))

    def test_invalid_capacity(self):
        with pytest.raises(NetworkConfigError):
            DropTailQueue(0)

    def test_nan_capacity_is_invalid(self):
        # `occupancy + size > nan` is always False: a queue that never drops
        with pytest.raises(NetworkConfigError, match="got nan"):
            DropTailQueue(float("nan"))

    def test_len_and_empty(self):
        q = DropTailQueue(10_000)
        assert len(q) == 0
        q.enqueue(make_packet())
        assert len(q) == 1


class TestEcnQueue:
    def test_marks_above_threshold(self):
        q = EcnQueue(capacity_bytes=10_000, mark_threshold_bytes=1000)
        q.enqueue(make_packet(1000, ecn=True))  # occupancy 0 -> no mark
        p2 = make_packet(1000, ecn=True)
        q.enqueue(p2)  # occupancy 1040 >= 1000 -> mark
        assert not q.dequeue().ecn_marked
        assert q.dequeue().ecn_marked
        assert q.counters.get("ecn_marks") == 1

    def test_non_ecn_packets_never_marked(self):
        q = EcnQueue(capacity_bytes=10_000, mark_threshold_bytes=100)
        q.enqueue(make_packet(1000, ecn=False))
        q.enqueue(make_packet(1000, ecn=False))
        assert not q.dequeue().ecn_marked
        assert not q.dequeue().ecn_marked

    def test_still_drops_when_full(self):
        q = EcnQueue(capacity_bytes=1100, mark_threshold_bytes=100)
        q.enqueue(make_packet(1000, ecn=True))
        assert not q.enqueue(make_packet(1000, ecn=True))
        assert q.counters.get("drops") == 1

    def test_invalid_threshold(self):
        with pytest.raises(NetworkConfigError):
            EcnQueue(capacity_bytes=1000, mark_threshold_bytes=0)
        with pytest.raises(NetworkConfigError):
            EcnQueue(capacity_bytes=1000, mark_threshold_bytes=2000)
