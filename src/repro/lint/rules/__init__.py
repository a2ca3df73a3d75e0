"""Rule registry: one module per family, assembled into ``ALL_RULES``."""

from __future__ import annotations

from typing import List

from repro.lint.core import Rule
from repro.lint.rules.determinism import DETERMINISM_RULES
from repro.lint.rules.hygiene import HYGIENE_RULES
from repro.lint.rules.units import UNITS_RULES

ALL_RULES: List[Rule] = [
    *UNITS_RULES,
    *DETERMINISM_RULES,
    *HYGIENE_RULES,
]

__all__ = ["ALL_RULES"]
