"""Golden BBR2 alpha ablation: the three energies it measures.

``docs/calibration.md`` sizes the BBR2-vs-BBR gap from
:func:`repro.figures.ablation.bbr2_alpha_ablation`; this file pins the
``repr`` of its result at the size ``tests/figures/test_ablation.py``
runs, so every energy is compared exactly. A refactor of how the
ablation runs must leave ``tests/golden/ablation/bbr2.txt`` unchanged.
To regenerate after a deliberate change, run ``PYTHONPATH=src python -m
tests.figures.test_ablation_golden`` and review the diff.
"""

from pathlib import Path

from repro.figures.ablation import bbr2_alpha_ablation

GOLDEN = (
    Path(__file__).resolve().parent.parent / "golden" / "ablation" / "bbr2.txt"
)

TRANSFER_BYTES = 6_000_000


def render():
    return repr(bbr2_alpha_ablation(transfer_bytes=TRANSFER_BYTES)) + "\n"


def test_bbr2_alpha_ablation_matches_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(render(), encoding="utf-8")
