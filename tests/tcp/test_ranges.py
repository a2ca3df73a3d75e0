"""Unit tests for the RangeSet interval bookkeeping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.ranges import RangeSet


class TestAdd:
    def test_disjoint_ranges(self):
        rs = RangeSet()
        assert rs.add(0, 10) == 10
        assert rs.add(20, 30) == 10
        assert list(rs) == [(0, 10), (20, 30)]

    def test_merge_overlapping(self):
        rs = RangeSet()
        rs.add(0, 10)
        assert rs.add(5, 15) == 5
        assert list(rs) == [(0, 15)]

    def test_merge_adjacent(self):
        rs = RangeSet()
        rs.add(0, 10)
        rs.add(10, 20)
        assert list(rs) == [(0, 20)]

    def test_duplicate_adds_zero_new_bytes(self):
        rs = RangeSet()
        rs.add(0, 10)
        assert rs.add(0, 10) == 0
        assert rs.add(2, 8) == 0

    def test_bridging_merge(self):
        rs = RangeSet()
        rs.add(0, 10)
        rs.add(20, 30)
        assert rs.add(5, 25) == 10
        assert list(rs) == [(0, 30)]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            RangeSet().add(5, 5)

    def test_total_bytes(self):
        rs = RangeSet()
        rs.add(0, 10)
        rs.add(20, 25)
        assert rs.total_bytes == 15


class TestQueries:
    def test_contains(self):
        rs = RangeSet()
        rs.add(10, 20)
        assert rs.contains(10, 20)
        assert rs.contains(12, 18)
        assert not rs.contains(5, 15)
        assert not rs.contains(15, 25)

    def test_contains_empty_set(self):
        assert not RangeSet().contains(0, 1)

    def test_covers_point(self):
        rs = RangeSet()
        rs.add(10, 20)
        assert rs.contains(10, 11)
        assert rs.contains(19, 20)
        assert not rs.contains(20, 21)  # half-open

    def test_first_missing_after(self):
        rs = RangeSet()
        rs.add(0, 10)
        rs.add(20, 30)
        assert rs.first_missing_after(0) == 10
        assert rs.first_missing_after(10) == 10
        assert rs.first_missing_after(25) == 30
        assert rs.first_missing_after(50) == 50

    def test_first_missing_chains_through_contiguous(self):
        rs = RangeSet()
        rs.add(0, 10)
        rs.add(10, 20)
        assert rs.first_missing_after(0) == 20


class TestMaintenance:
    def test_trim_below(self):
        rs = RangeSet()
        rs.add(0, 10)
        rs.add(20, 30)
        rs.trim_below(25)
        assert list(rs) == [(25, 30)]

    def test_trim_below_everything(self):
        rs = RangeSet()
        rs.add(0, 10)
        rs.trim_below(100)
        assert not rs

    def test_blocks_above_returns_highest(self):
        """SACK blocks report the most recent (highest) ranges first-hand."""
        rs = RangeSet()
        for start in (10, 30, 50, 70, 90):
            rs.add(start, start + 5)
        blocks = rs.blocks_above(0, limit=3)
        assert blocks == ((50, 55), (70, 75), (90, 95))

    def test_blocks_above_excludes_cumulative(self):
        rs = RangeSet()
        rs.add(0, 10)
        rs.add(20, 30)
        assert rs.blocks_above(0) == ((20, 30),)

    def test_bool(self):
        rs = RangeSet()
        assert not rs
        rs.add(0, 1)
        assert rs


def runs_of(covered):
    """The maximal runs of consecutive bytes in ``covered``, as intervals."""
    runs = []
    for byte in sorted(covered):
        if runs and runs[-1][1] == byte:
            runs[-1][1] = byte + 1
        else:
            runs.append([byte, byte + 1])
    return [tuple(run) for run in runs]


class TestRunningTotal:
    """``total_bytes`` is a running total; the intervals are the truth."""

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("add"), st.integers(0, 60), st.integers(1, 25)),
                # many small islands: an add that swallows several at
                # once, touches one at either end, or lands between two
                st.tuples(st.just("add"), st.integers(0, 200), st.integers(1, 4)),
                st.tuples(st.just("add"), st.integers(0, 200), st.integers(20, 90)),
                st.tuples(st.just("trim"), st.integers(0, 90), st.just(0)),
                st.tuples(st.just("trim"), st.integers(0, 300), st.just(0)),
            ),
            max_size=40,
        ),
        limit=st.integers(1, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_total_and_newly_covered_match_the_intervals(self, ops, limit):
        rs = RangeSet()
        covered = set()
        assert rs.blocks_above(0) == ()
        for op, start, length in ops:
            if op == "add":
                fresh = set(range(start, start + length)) - covered
                assert rs.add(start, start + length) == len(fresh)
                covered |= fresh
            else:
                rs.trim_below(start)
                covered = {byte for byte in covered if byte >= start}
            assert rs.total_bytes == len(covered)
            assert rs.total_bytes == sum(end - begin for begin, end in rs)
            # sorted, disjoint, and merged wherever two would touch
            runs = runs_of(covered)
            assert list(rs) == runs
            assert bool(rs) is bool(runs) and len(rs) == len(runs)
            # the queries both TCP ends make, around the point just touched
            for point in (start - 1, start, start + length, start + length + 1):
                assert rs.contains(point, point + 1) is (point in covered)
                missing = point
                while missing in covered:
                    missing += 1
                assert rs.first_missing_after(point) == missing
                above = [run for run in runs if run[0] > point]
                assert rs.blocks_above(point, limit) == tuple(above[-limit:])
            assert rs.contains(start, start + max(length, 1)) is (
                set(range(start, start + max(length, 1))) <= covered
            )
