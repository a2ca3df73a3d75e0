#!/usr/bin/env python3
"""The paper's §5 agenda, end to end: a green datacenter playbook.

Walks the three network-side levers the paper's future-work section
proposes, with measured numbers from the simulated testbed:

1. **Transport**: run SRPT-approximating scheduling (pFabric-style
   priorities) instead of fair sharing.
2. **Fan-in**: avoid spreading a fixed aggregate across many
   synchronized senders (incast is enforced fairness across hosts).
3. **Routing**: consolidate traffic onto fewer links — worthless on
   today's load-independent switches, profitable on rate-adaptive
   hardware.
"""

from __future__ import annotations

from repro.figures.incast import run_incast_sweep
from repro.figures.load_balance import run_hardware_comparison
from repro.figures.srpt import run_srpt_comparison


def main() -> None:
    print("=" * 64)
    print("1. transport: SRPT vs fair sharing")
    print("=" * 64)
    srpt = run_srpt_comparison()
    print(srpt.format_table())
    print(
        f"\npFabric-style SRPT saves "
        f"{srpt.arms.savings_percent('srpt'):.1f}% energy and cuts "
        f"mean FCT {srpt.arms.fct_speedup('srpt'):.1f}x\n"
    )

    print("=" * 64)
    print("2. fan-in: the energy cost of incast")
    print("=" * 64)
    incast = run_incast_sweep(fan_ins=(1, 2, 4, 8))
    print(incast.format_table())
    print(
        f"\nsame bytes, same bottleneck — but 8-way fan-in costs "
        f"{incast.energy_growth():.1f}x the energy of one sender\n"
    )

    print("=" * 64)
    print("3. routing: load imbalance across links")
    print("=" * 64)
    today, adaptive = run_hardware_comparison()
    print(today.format_table())
    print()
    print(adaptive.format_table())
    print(
        f"\non rate-adaptive hardware, consolidation saves up to "
        f"{adaptive.max_savings():.1%} of switch power; on today's "
        f"hardware, exactly 0%"
    )


if __name__ == "__main__":
    main()
