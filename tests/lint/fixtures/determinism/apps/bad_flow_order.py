"""Hash-order-dependent flow placement in an apps/ package (lint fixture)."""

from __future__ import annotations


def place_flows(hosts, rng):
    # det-set-iteration: host *names* are strings, so this order moves
    # with PYTHONHASHSEED, and with it which host draws which flow
    candidates = list(set(hosts))
    return [rng.choice(candidates) for _ in range(4)]
