#!/usr/bin/env python3
"""Quickstart: the paper's headline result in ~30 lines.

Two 12.5 MB transfers share a simulated 10 Gb/s link. Run them the
TCP-fair way (both at 5 Gb/s) and the "full speed, then idle" way
(serialized at line rate), and compare measured end-host energy.

Expected output: the serialized schedule saves ~16 % — exactly the
paper's Figure 1 endpoint.
"""

from __future__ import annotations

from repro.harness import FlowSpec, Scenario, run_once
from repro.units import gbps

TRANSFER_BYTES = 12_500_000  # 0.1 Gbit: 1/100 of the paper's per-flow size


def main() -> None:
    fair = Scenario(
        "fair-share",
        flows=[
            FlowSpec(TRANSFER_BYTES, cca="cubic", target_rate_bps=gbps(5.0)),
            FlowSpec(TRANSFER_BYTES, cca="cubic", target_rate_bps=gbps(5.0)),
        ],
    )
    greedy = Scenario(
        "full-speed-then-idle",
        flows=[
            FlowSpec(TRANSFER_BYTES, cca="cubic"),
            FlowSpec(TRANSFER_BYTES, cca="cubic"),
        ],
        # the second flow starts when the first completes
        policy="serialized",
    )

    print(f"{'schedule':<22} {'energy':>9} {'duration':>9} {'avg power':>10}")
    measurements = {}
    for scenario in (fair, greedy):
        m = run_once(scenario, seed=1)
        measurements[scenario.name] = m
        print(
            f"{scenario.name:<22} {m.energy_j:8.3f}J {m.duration_s:8.4f}s "
            f"{m.average_power_w:9.2f}W"
        )

    saved = 1 - (
        measurements["full-speed-then-idle"].energy_j
        / measurements["fair-share"].energy_j
    )
    print(f"\nfull-speed-then-idle saves {saved:.1%} (paper: ~16%)")


if __name__ == "__main__":
    main()
