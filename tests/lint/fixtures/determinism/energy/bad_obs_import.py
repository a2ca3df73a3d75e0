"""Energy model reading the observability layer (lint fixture)."""

from __future__ import annotations

from repro.obs.observer import NULL_OBSERVER


def package_power_w(load: float) -> float:
    # The forbidden direction: joules that depend on whether a trace
    # is being written.
    return 20.0 + (1.0 if NULL_OBSERVER.enabled else 0.0) * load
