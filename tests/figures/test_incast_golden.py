"""Golden incast points: every field of every ``IncastPoint``.

The incast figure's printed table rounds energy to the millijoule and
makespan to the microsecond; this file pins each point's ``repr``, so
every float is compared exactly. Two sizes are covered: the 400 kB the
figure golden uses and the command's 20 MB default. A refactor of how
incast runs must leave ``tests/golden/incast/points.txt`` unchanged. To
regenerate after a deliberate change, run ``PYTHONPATH=src python -m
tests.figures.test_incast_golden`` and review the diff.
"""

from pathlib import Path

from repro.figures.incast import run_incast_sweep

GOLDEN = (
    Path(__file__).resolve().parent.parent / "golden" / "incast" / "points.txt"
)

AGGREGATE_BYTES = (400_000, 20_000_000)


def render():
    """One ``aggregate_bytes <n>`` line per size, then one point a line."""
    lines = []
    for aggregate_bytes in AGGREGATE_BYTES:
        result = run_incast_sweep(aggregate_bytes=aggregate_bytes)
        lines.append(f"aggregate_bytes {aggregate_bytes}")
        lines.extend(repr(point) for point in result.points)
    return "\n".join(lines) + "\n"


def test_incast_points_match_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(render(), encoding="utf-8")
