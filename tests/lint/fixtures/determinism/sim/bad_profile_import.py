"""Simulator module importing the obs-side profiler (lint fixture)."""

from __future__ import annotations

import repro.obs.profile
from repro.obs import attrib
from repro.obs.profile import ProfiledSpan


def self_profile() -> object:
    # The forbidden shortcut: a hot path reaching for the profiler that
    # observes it, so its behaviour could depend on being profiled.
    return (ProfiledSpan, attrib, repro.obs.profile)
