"""Unit tests for the pFabric-style priority queue."""

import pytest

from repro.net.packet import Packet
from repro.net.queue import PriorityQueue


def pkt(flow, priority, payload=1000, seq=0):
    return Packet(
        flow_id=flow, src="a", dst="b", seq=seq,
        payload_bytes=payload, priority=priority,
    )


class TestScheduling:
    def test_most_urgent_flow_first(self):
        q = PriorityQueue(100_000)
        q.enqueue(pkt(flow=1, priority=10_000))
        q.enqueue(pkt(flow=2, priority=500))
        q.enqueue(pkt(flow=3, priority=2_000))
        assert q.dequeue().flow_id == 2
        assert q.dequeue().flow_id == 3
        assert q.dequeue().flow_id == 1

    def test_fifo_within_flow(self):
        """Never reorder a flow against itself (spurious-SACK hazard)."""
        q = PriorityQueue(100_000)
        # Later packets of a flow carry *lower* remaining-bytes priority.
        q.enqueue(pkt(flow=1, priority=3000, seq=0))
        q.enqueue(pkt(flow=1, priority=2000, seq=1000))
        q.enqueue(pkt(flow=1, priority=1000, seq=2000))
        seqs = [q.dequeue().seq for _ in range(3)]
        assert seqs == [0, 1000, 2000]

    def test_flow_priority_tracks_most_recent(self):
        q = PriorityQueue(100_000)
        q.enqueue(pkt(flow=1, priority=10_000))
        q.enqueue(pkt(flow=2, priority=5_000))
        # flow 1 is nearly done now: its priority drops below flow 2's
        q.enqueue(pkt(flow=1, priority=100))
        assert q.dequeue().flow_id == 1

    def test_unprioritized_served_last(self):
        q = PriorityQueue(100_000)
        q.enqueue(pkt(flow=1, priority=None))
        q.enqueue(pkt(flow=2, priority=999_999))
        assert q.dequeue().flow_id == 2

    def test_empty_dequeue(self):
        assert PriorityQueue(1000).dequeue() is None


class TestEviction:
    def test_evicts_least_urgent_for_urgent_arrival(self):
        q = PriorityQueue(2 * 1040)  # fits two 1000B-payload packets
        q.enqueue(pkt(flow=1, priority=10_000))
        q.enqueue(pkt(flow=2, priority=5_000))
        accepted = q.enqueue(pkt(flow=3, priority=100))
        assert accepted
        assert q.counters.get("evictions") == 1
        flows = {q.dequeue().flow_id, q.dequeue().flow_id}
        assert flows == {2, 3}  # flow 1 (least urgent) was evicted

    def test_drops_arrival_when_least_urgent(self):
        q = PriorityQueue(2 * 1040)
        q.enqueue(pkt(flow=1, priority=100))
        q.enqueue(pkt(flow=2, priority=200))
        accepted = q.enqueue(pkt(flow=3, priority=999_999))
        assert not accepted
        assert q.counters.get("evictions") == 0
        assert q.counters.get("drops") == 1

    def test_eviction_takes_newest_of_worst_flow(self):
        q = PriorityQueue(3 * 1040)
        q.enqueue(pkt(flow=1, priority=10_000, seq=0))
        q.enqueue(pkt(flow=1, priority=9_000, seq=1000))
        q.enqueue(pkt(flow=2, priority=5_000, seq=0))
        q.enqueue(pkt(flow=3, priority=100, seq=0))  # evicts flow 1's tail
        remaining = []
        while True:
            packet = q.dequeue()
            if packet is None:
                break
            remaining.append((packet.flow_id, packet.seq))
        assert (1, 0) in remaining        # head survived
        assert (1, 1000) not in remaining  # tail evicted

    def test_occupancy_consistent_after_eviction(self):
        q = PriorityQueue(2 * 1040)
        q.enqueue(pkt(flow=1, priority=10_000))
        q.enqueue(pkt(flow=2, priority=5_000))
        q.enqueue(pkt(flow=3, priority=100))
        total = 0
        while True:
            packet = q.dequeue()
            if packet is None:
                break
            total += packet.size_bytes
        assert q.occupancy_bytes == 0
        assert total <= 2 * 1040

    def test_len_and_empty(self):
        q = PriorityQueue(100_000)
        assert len(q) == 0
        q.enqueue(pkt(flow=1, priority=1))
        assert len(q) == 1
        q.dequeue()
        assert len(q) == 0
