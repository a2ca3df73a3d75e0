"""Result export: JSON serialization of measurements.

The paper's artifact repository ships raw measurement files alongside
analysis scripts; these helpers do the same for simulated runs so
results can be plotted or post-processed outside Python.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Sequence

if TYPE_CHECKING:  # avoid a runtime analysis <-> harness import cycle
    from repro.harness.runner import RepeatedResult, RunMeasurement


def run_to_dict(measurement: RunMeasurement) -> Dict[str, Any]:
    """A JSON-ready record of one run (series omitted; they're bulky)."""
    return {
        "scenario": measurement.scenario,
        "seed": measurement.seed,
        "energy_j": measurement.energy_j,
        "duration_s": measurement.duration_s,
        "average_power_w": measurement.average_power_w,
        "total_retransmissions": measurement.total_retransmissions,
        "bottleneck_drops": measurement.bottleneck_drops,
        "ecn_marks": measurement.ecn_marks,
        "flows": [
            {
                "flow_id": r.flow_id,
                "cca": r.cca,
                "bytes": r.bytes_transferred,
                "start_s": r.start_time,
                "end_s": r.end_time,
                "fct_s": r.duration_s,
                "throughput_bps": r.mean_throughput_bps,
                "retransmissions": r.retransmissions,
            }
            for r in measurement.flow_results
        ],
    }


def repeated_to_dict(result: RepeatedResult) -> Dict[str, Any]:
    """A JSON-ready record of a repeated scenario with summary stats."""
    return {
        "scenario": result.scenario,
        "repetitions": result.n,
        "mean_energy_j": result.mean_energy_j,
        "std_energy_j": result.std_energy_j,
        "mean_power_w": result.mean_power_w,
        "std_power_w": result.std_power_w,
        "mean_duration_s": result.mean_duration_s,
        "mean_retransmissions": result.mean_retransmissions,
        "runs": [run_to_dict(run) for run in result.runs],
    }


def to_json(
    results: Sequence[RepeatedResult], indent: int = 2
) -> str:
    """Serialize repeated results to a JSON document."""
    return json.dumps(
        [repeated_to_dict(r) for r in results], indent=indent
    )


def save_json(results: Sequence[RepeatedResult], path: str) -> None:
    """Write :func:`to_json` output to a file."""
    with open(path, "w") as handle:
        handle.write(to_json(results))
