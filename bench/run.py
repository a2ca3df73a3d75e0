"""One visit to one workload: the command ``BENCHMARK.json`` names.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1

``--trace 0`` probes set-up time in fresh interpreters, then measures
timed iterations for ``T`` seconds in one more, and reports the
end-to-end metrics. ``--trace 1`` runs the traced passes instead and
reports the per-layer metrics. Every metric is printed by name with its
unit; the last line is the JSON object the driver reads. One child
interpreter runs at a time and each is waited for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.calibrate import Kernel, calibrate, calibrated  # noqa: E402
from bench.metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOAD_NAMES = (
    "dumbbell_sweep", "lossy_mix", "fabric_datacenter", "cca_mtu_grid",
)

#: fresh-interpreter set-up probes per visit
PROBES = 5


def _child(mode: str, workload: str, seed: int, *extra: str) -> Dict[str, Any]:
    """Run one child interpreter to completion; its last line is JSON."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, "-m", "bench.child", mode,
        "--workload", workload, "--seed", str(seed), *extra,
    ]
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def probe_setup(workload: str, seed: int, smoke: bool, probes: int) -> List[float]:
    """Calibrated seconds from spawn to first scenario built, per probe."""
    extra = ["--smoke"] if smoke else []
    samples = []
    kernel = Kernel()
    before = calibrate(kernel)
    for _ in range(probes):
        started = time.perf_counter()
        _child("probe", workload, seed, *extra)
        raw = time.perf_counter() - started
        after = calibrate(kernel)
        samples.append(calibrated(raw, (before + after) / 2.0))
        before = after
    return samples


def visit(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    iterations: int = 0,
    probes: int = PROBES,
    spans: Optional[Path] = None,
) -> Dict[str, Any]:
    """One visit: the driver's four keys plus the detail ``bench`` keeps."""
    extra = ["--smoke"] if smoke else []
    if trace:
        if spans is not None:
            extra += ["--spans", str(spans)]
        child = _child("trace", workload, seed, *extra)
        units = {metric.name: metric.unit for metric in PER_LAYER}
        values = child["metrics"]
        detail: Dict[str, Any] = {}
    else:
        setup = probe_setup(workload, seed, smoke, probes)
        extra += ["--seconds", str(seconds), "--iterations", str(iterations)]
        child = _child("measure", workload, seed, *extra)
        units = {metric.name: metric.unit for metric in END_TO_END}
        walls = [sample["wall_s"] for sample in child["samples"]]
        values = {"setup_s": statistics.median(setup)}
        if walls:
            values["wall_s"] = statistics.median(walls)
            values["pkts_per_s"] = child["packets"] / values["wall_s"]
            values["peak_rss_mb"] = child["peak_rss_mb"]
        detail = {
            "samples": child["samples"],
            "setup_samples": setup,
            "packets": child["packets"],
        }
    correct = child["failed"] == 0 and not child["problems"] and set(values) == set(units)
    return {
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
        "sim_digest": child["sim_digest"],
        "problems": child["problems"],
        **detail,
    }


def print_visit(workload: str, result: Dict[str, Any]) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:18} {name:34} {metric['value']:>16.6g} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"{workload:18} {'fail_rate':34} {failed / attempted:>16.6g} fraction "
        f"({failed} failed of {attempted} attempted)"
    )
    print(f"{workload:18} sim_digest {result['sim_digest']}")
    for problem in result["problems"]:
        print(f"{workload:18} PROBLEM {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    spans = ROOT / "bench" / "out" / f"{args.workload}.seed{args.seed}.spans.json"
    result = visit(
        args.workload, args.seed, args.seconds, bool(args.trace),
        smoke=args.smoke, spans=spans,
    )
    if args.smoke:
        print("SMOKE — numbers not comparable")
    print_visit(args.workload, result)
    print(
        json.dumps(
            {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
