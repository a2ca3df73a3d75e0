"""docs/architecture.md's "Life of a packet" table is ``make frames``.

The table's "now" column is the frames column of ``tests/frames.py``
(its bytecodes column is pasted beside it and compared with nothing).
Frame totals differ between interpreters (3.12 inlines comprehensions),
so the section names the interpreter it was counted on and the
comparison runs there; elsewhere ``FRAMES_PER_SEGMENT_CEILING`` is the
gate.
"""

import re
import sys
from pathlib import Path

import pytest

from tests.frames import table

DOC = Path(__file__).parent.parent / "docs" / "architecture.md"


def life_of_a_packet():
    """The section's text, from its heading to the next one."""
    section = DOC.read_text().split("## Life of a packet")[1]
    return section.split("\n## ")[0]


def test_last_column_is_what_make_frames_prints():
    section = life_of_a_packet()
    major, minor = re.search(r"counted on Python (\d+)\.(\d+)", section).groups()
    if sys.version_info[:2] != (int(major), int(minor)):
        pytest.skip(f"the table was counted on Python {major}.{minor}")
    units, rows = table()
    # | stage | frames counted | per | before | ... | now | ... |
    header, *cells = [
        [cell.strip(" *").replace("`", "") for cell in line.strip("|\n").split("|")]
        for line in section.splitlines()
        if line.startswith("| ")
    ]
    now = header.index("now")
    assert [(row[0], row[2], row[now]) for row in cells] == [
        (stage, unit, f"{frames:.2f}") for frames, _bytecodes, unit, stage in rows
    ]
    quoted = re.search(
        r"(\d+) segments, (\d+) ACKs, (\d+)\s+link\s+hops, (\d+)\s+heap\s+pushes",
        section,
    )
    assert [int(n) for n in quoted.groups()] == [
        units["segment"], units["ACK"], units["hop"], units["push"]
    ]
