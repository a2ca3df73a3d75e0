"""Calibration self-checks (``greenenvy validate``).

Fast (< 1 s, no simulation) assertions that the calibrated energy model
still matches the paper's published numbers. Run these after touching
anything in :mod:`repro.energy.calibration` — they are the contract the
rest of the reproduction stands on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.theorem import is_strictly_concave_on, theorem1_savings
from repro.energy import calibration as cal
from repro.energy.power_model import PowerModel
from repro.units import MILLION


@dataclass
class Check:
    """One named validation with its outcome."""

    name: str
    expected: str
    actual: str
    ok: bool


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-12)


def run_validation() -> List[Check]:
    """All calibration checks, in dependency order."""
    model = PowerModel()
    p = model.smooth_sending_power_w
    checks: List[Check] = []

    def add(name: str, expected: str, actual: str, ok: bool) -> None:
        checks.append(Check(name, expected, actual, ok))

    # anchors
    add(
        "idle power anchor",
        f"{cal.P_IDLE_W} W (paper §4.1)",
        f"{p(0.0):.2f} W",
        _close(p(0.0), cal.P_IDLE_W, 1e-6),
    )
    add(
        "half-rate anchor",
        f"{cal.P_HALF_RATE_W} W",
        f"{p(5.0):.2f} W",
        _close(p(5.0), cal.P_HALF_RATE_W, 1e-6),
    )
    add(
        "line-rate anchor",
        f"{cal.P_LINE_RATE_W} W",
        f"{p(10.0):.2f} W",
        _close(p(10.0), cal.P_LINE_RATE_W, 1e-6),
    )

    # structure
    add(
        "strict concavity (Theorem 1 premise)",
        "concave on [0, 10] Gb/s",
        "holds" if is_strictly_concave_on(p, 0.0, 10.0) else "VIOLATED",
        is_strictly_concave_on(p, 0.0, 10.0),
    )
    saving = theorem1_savings(p, 10.0, [10.0, 0.0])
    add(
        "full-speed-then-idle saving",
        "16.3% (paper §4.1 arithmetic)",
        f"{100 * saving:.1f}%",
        _close(saving, 0.163, 0.05),
    )

    # marginal-power quote (§4.1)
    first = (p(5.0) - p(0.0)) / p(0.0)
    second = (p(10.0) - p(5.0)) / p(5.0)
    add(
        "first 5 Gb/s power increase",
        "~60% (paper: 12.7 W on 21.49 W)",
        f"{100 * first:.0f}%",
        0.5 <= first <= 0.7,
    )
    add(
        "next 5 Gb/s power increase",
        "~5% (paper: 1.6 W on 34.23 W)",
        f"{100 * second:.1f}%",
        0.02 <= second <= 0.08,
    )

    # loaded-host savings (§4.2), from the analytic model
    for load, expected in ((0.25, 0.010), (0.75, 0.0017)):
        fair = model.smooth_sending_power_w(5.0, load)
        fsti = model.full_speed_then_idle_power_w(5.0, load=load)
        measured = (fair - fsti) / fair
        add(
            f"savings at {100 * load:.0f}% load",
            f"{100 * expected:.2f}% (paper §4.2)",
            f"{100 * measured:.2f}%",
            _close(measured, expected, 0.4),
        )

    # dollars (§4.2)
    from repro.core.savings import paper_headline_savings

    dollars = paper_headline_savings()
    add(
        "1% at datacenter scale",
        "$10M/year",
        f"${dollars / MILLION:.1f}M/year",
        _close(dollars, 10 * MILLION, 0.01),
    )
    return checks


def validation_passed(checks: List[Check]) -> bool:
    """Whether every check is green."""
    return all(c.ok for c in checks)
