"""Harness-side obs import is the blessed direction (lint fixture)."""

from __future__ import annotations

from repro.obs.observer import NULL_OBSERVER


def run_traced() -> None:
    # fine here: this module is not in a result-producing package
    NULL_OBSERVER.emit("run_started")
