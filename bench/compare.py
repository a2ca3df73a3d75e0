"""``python -m bench compare A.json B.json``: judge run B against run A.

One row per workload x end-to-end metric: both medians and quartiles,
the ratio with its base, and a verdict by the metric's bound:

* ``regressed`` / ``improved``: B's median is worse / better than A's by
  more than the bound;
* ``unchanged``: within the bound;
* ``unresolved``: A's own run-to-run spread (the distance between its
  quartiles, as a share of its median) is wider than the bound, so the
  bound cannot be resolved — unless every sample of one side beats every
  sample of the other, which settles it.

Exact counters and ``sim_digest`` are compared for equality and listed
when they differ: they are counts, never speed-ups. Exits non-zero on a
``regressed`` row or a higher ``fail_rate``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from bench.metrics import END_TO_END, EXACT_COUNTERS, EndToEnd


def verdict(metric: EndToEnd, a: Dict[str, Any], b: Dict[str, Any]) -> str:
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    if (a["q3"] - a["q1"]) / a["median"] > metric.bound:
        worst_a = max(sign * x for x in a["samples"])
        best_a = min(sign * x for x in a["samples"])
        worst_b = max(sign * x for x in b["samples"])
        best_b = min(sign * x for x in b["samples"])
        if worst_b < best_a:
            return "improved"
        if best_b > worst_a:
            return "regressed"
        return "unresolved"
    if worse_by > metric.bound:
        return "regressed"
    if worse_by < -metric.bound:
        return "improved"
    return "unchanged"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> "tuple[List[str], bool]":
    """(report lines, ok)."""
    lines = []
    ok = True
    if a["seed"] != b["seed"]:
        lines.append(
            f"note: seeds differ ({a['seed']} vs {b['seed']}); counters and "
            f"digests are only comparable at equal seeds"
        )
    for name in a["workloads"]:
        if name not in b["workloads"]:
            lines.append(f"{name}: missing from B")
            ok = False
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in END_TO_END:
            sa, sb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            result = verdict(metric, sa, sb)
            ok = ok and result != "regressed"
            lines.append(
                f"{name:18} {metric.name:12} "
                f"A {sa['median']:.6g} [{sa['q1']:.6g}, {sa['q3']:.6g}]  "
                f"B {sb['median']:.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}] {metric.unit}  "
                f"B/A {sb['median'] / sa['median']:.4f} of A's {sa['median']:.6g} "
                f"{metric.unit} (bound {metric.bound:.0%}, {metric.better} is better)  "
                f"{result}"
            )
        lines.append(
            f"{name:18} {'fail_rate':12} "
            f"A {wa['failed']}/{wa['attempted']}  B {wb['failed']}/{wb['attempted']}"
        )
        if wb["fail_rate"] > wa["fail_rate"]:
            lines.append(f"{name:18} fail_rate rose")
            ok = False
        if wa["sim_digest"] != wb["sim_digest"]:
            lines.append(
                f"{name:18} sim_digest differs: {wa['sim_digest']} vs {wb['sim_digest']}"
            )
        for counter in EXACT_COUNTERS:
            va = wa["per_layer"][counter]["value"]
            vb = wb["per_layer"][counter]["value"]
            if va != vb:
                lines.append(f"{name:18} {counter} differs: {va!r} vs {vb!r}")
    return lines, ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare", description=__doc__)
    parser.add_argument("a", help="the base run's result JSON")
    parser.add_argument("b", help="the run to judge")
    args = parser.parse_args(argv)
    runs = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    lines, ok = compare(*runs)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
