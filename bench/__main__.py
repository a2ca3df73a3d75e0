"""``python -m bench``: the whole benchmark, in rounds, with one result file.

    PYTHONPATH=src python -m bench [--workload NAME]... [--seed S]
        [--rounds R] [--seconds T] [--out FILE] [--smoke]
    PYTHONPATH=src python -m bench compare A.json B.json

Rounds, not batches: the driver cycles through the workloads ``R`` times
and each visit is a fresh interpreter (``bench/run.py``), so slow machine
drift hits every workload alike. After the last round each workload is
visited once more, traced, for the per-layer numbers. A full run appends
one line to ``bench/history.jsonl``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench import compare
from bench.calibrate import REF_SLICE_S
from bench.metrics import summarize
from bench.run import ROOT, WORKLOAD_NAMES, print_visit, visit

HISTORY = ROOT / "bench" / "history.jsonl"
DEFAULT_OUT = ROOT / "bench" / "out" / "result.json"


def environment() -> Dict[str, Any]:
    try:
        sha: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # not a git checkout
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "ref_slice_s": REF_SLICE_S,
    }


def run(args: argparse.Namespace) -> int:
    names = args.workload or list(WORKLOAD_NAMES)
    rounds = 1 if args.smoke else args.rounds
    out = Path(args.out)
    visits: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for round_index in range(rounds):
        for name in names:
            print(f"-- round {round_index + 1}/{rounds}: {name}", flush=True)
            visits[name].append(
                visit(
                    name, args.seed, args.seconds, trace=False, smoke=args.smoke,
                    iterations=1 if args.smoke else 0,
                    probes=1 if args.smoke else 3,
                )
            )
    workloads: Dict[str, Any] = {}
    for name in names:
        print(f"-- traced: {name}", flush=True)
        traced = visit(
            name, args.seed, args.seconds, trace=True, smoke=args.smoke,
            spans=out.with_name(f"{out.stem}.{name}.spans.json"),
        )
        workloads[name] = _fold(visits[name], traced)
    result = {
        "schema": 1,
        "smoke": args.smoke,
        "seed": args.seed,
        "rounds": rounds,
        "seconds": args.seconds,
        "environment": environment(),
        "workloads": workloads,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    _print(result)
    print(f"wrote {out}")
    if not args.smoke:
        with HISTORY.open("a", encoding="utf-8") as history:
            history.write(json.dumps(_history_line(result), sort_keys=True) + "\n")
    correct = all(w["correct"] for w in workloads.values())
    return 0 if correct else 1


def _fold(visits: List[Dict[str, Any]], traced: Dict[str, Any]) -> Dict[str, Any]:
    """All rounds of one workload plus its traced visit, as one record."""
    samples: Dict[str, List[float]] = {
        "wall_s": [s["wall_s"] for v in visits for s in v.get("samples", ())],
        "setup_s": [s for v in visits for s in v.get("setup_samples", ())],
        "peak_rss_mb": [
            v["metrics"]["peak_rss_mb"]["value"]
            for v in visits if "peak_rss_mb" in v["metrics"]
        ],
    }
    packets = visits[0].get("packets", 0)
    samples["pkts_per_s"] = [packets / wall for wall in samples["wall_s"]]
    units = {name: m["unit"] for v in visits for name, m in v["metrics"].items()}
    attempted = sum(v["attempted"] for v in visits)
    failed = sum(v["failed"] for v in visits)
    digests = {v["sim_digest"] for v in visits + [traced]}
    problems = [p for v in visits + [traced] for p in v["problems"]]
    if len(digests) != 1:
        problems.append(f"sim_digest changed between visits: {sorted(map(str, digests))}")
    return {
        "end_to_end": {
            name: {"unit": units[name], "samples": values, **summarize(values)}
            for name, values in samples.items() if values
        },
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "sim_digest": visits[0]["sim_digest"],
        "per_layer": traced["metrics"],
        "correct": all(v["correct"] for v in visits + [traced]) and not problems,
        "problems": problems,
    }


def _print(result: Dict[str, Any]) -> None:
    if result["smoke"]:
        print("SMOKE — numbers not comparable")
    for name, record in result["workloads"].items():
        for metric, s in record["end_to_end"].items():
            print(
                f"{name:18} {metric:12} median {s['median']:>12.6g} {s['unit']:5}"
                f" q1 {s['q1']:.6g} q3 {s['q3']:.6g} min {s['min']:.6g}"
                f" max {s['max']:.6g} n {s['n']}"
            )
        print_visit(
            name,
            {
                "metrics": record["per_layer"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "sim_digest": record["sim_digest"],
                "problems": record["problems"],
            },
        )


def _history_line(result: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "when": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": result["seed"],
        "rounds": result["rounds"],
        "seconds": result["seconds"],
        "environment": result["environment"],
        "medians": {
            name: {
                metric: s["median"] for metric, s in record["end_to_end"].items()
            }
            for name, record in result["workloads"].items()
        },
        "fail_rate": {
            name: record["fail_rate"] for name, record in result["workloads"].items()
        },
        "sim_digest": {
            name: record["sim_digest"] for name, record in result["workloads"].items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="measuring time per visit (about three timed iterations)",
    )
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument("--smoke", action="store_true")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
