"""Unit tests for table rendering."""

import pytest

from repro.analysis.tables import format_table
from repro.errors import AnalysisError


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["name", "value"], [("a", 1.0), ("longer", 2.5)])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "longer" in lines[3]

    def test_floats_formatted(self):
        out = format_table(["x"], [(1.23456,)], float_fmt="{:.2f}")
        assert "1.23" in out

    def test_non_floats_stringified(self):
        out = format_table(["x", "n"], [("abc", 42)])
        assert "abc" in out and "42" in out

    def test_width_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            format_table(["a", "b"], [(1,)])

    def test_empty_headers_rejected(self):
        with pytest.raises(AnalysisError):
            format_table([], [])

    def test_empty_rows_ok(self):
        out = format_table(["a"], [])
        assert "a" in out
