#!/usr/bin/env python3
"""Energy audit of congestion control algorithms (the paper's §4.3).

Transmits the same payload with each CCA on the simulated testbed and
reports energy, average power, completion time and retransmissions —
the per-algorithm "energy bill" an operator choosing a datacenter
transport would want to see.

Run with a larger --bytes value for tighter numbers (the default keeps
the demo under a minute).
"""

from __future__ import annotations

import argparse

from repro.analysis.tables import format_table
from repro.cc.registry import PAPER_ALGORITHMS
from repro.harness import FlowSpec, Scenario, run_repeated
from repro.units import MILLION, to_msec


def audit(transfer_bytes: int, mtu: int, repetitions: int):
    rows = []
    for cca in PAPER_ALGORITHMS:
        scenario = Scenario(
            name=f"audit-{cca}",
            flows=[FlowSpec(transfer_bytes, cca=cca)],
            mtu_bytes=mtu,
            packages=1,
        )
        result = run_repeated(scenario, repetitions=repetitions)
        rows.append(
            (
                cca,
                result.mean_energy_j,
                result.std_energy_j,
                result.mean_power_w,
                to_msec(result.mean_duration_s),
                int(result.mean_retransmissions),
            )
        )
    rows.sort(key=lambda r: r[1])
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bytes", type=int, default=20_000_000)
    parser.add_argument("--mtu", type=int, default=9000)
    parser.add_argument("--reps", type=int, default=2)
    args = parser.parse_args()

    rows = audit(args.bytes, args.mtu, args.reps)
    print(
        f"\nEnergy audit: {args.bytes / MILLION:.0f} MB per flow, "
        f"MTU {args.mtu}, {args.reps} runs each\n"
    )
    print(
        format_table(
            ["cca", "energy (J)", "std", "power (W)", "fct (ms)", "retx"],
            rows,
        )
    )
    cheapest, most_expensive = rows[0], rows[-1]
    spread = (most_expensive[1] - cheapest[1]) / cheapest[1]
    print(
        f"\n{cheapest[0]} is the most energy-efficient; "
        f"{most_expensive[0]} costs {spread:.0%} more."
    )


if __name__ == "__main__":
    main()
