"""Golden per-mechanism attribution: every joule of six CCAs' transfers.

``repro.figures.mechanisms`` prints its table at three decimals, which
hides a drift in any component; this file pins the ``repr`` of each
row's total and every component at 8 MB, so a refactor of how the
breakdown runs must leave ``tests/golden/mechanisms/components.txt``
unchanged. To regenerate after a deliberate change, run
``PYTHONPATH=src python -m tests.figures.test_mechanisms_golden`` and
review the diff.
"""

from pathlib import Path

from repro.figures.mechanisms import run_mechanism_breakdown

GOLDEN = (
    Path(__file__).resolve().parent.parent
    / "golden"
    / "mechanisms"
    / "components.txt"
)

CCAS = ("cubic", "bbr", "bbr2", "dctcp", "baseline", "hpcc")
TRANSFER_BYTES = 8_000_000


def render():
    result = run_mechanism_breakdown(ccas=CCAS, transfer_bytes=TRANSFER_BYTES)
    lines = []
    for row in result.rows:
        lines.append(f"{row.cca} total_j={row.total_j!r}")
        for key, joules in row.components_j.items():
            lines.append(f"  {key}={joules!r}")
    return "\n".join(lines) + "\n"


def test_mechanism_breakdown_matches_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(render(), encoding="utf-8")
