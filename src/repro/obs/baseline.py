"""Cross-run baselines: snapshot a sweep's outcomes, diff against later runs.

A *baseline* is a small committed JSON document capturing the scalar
outcomes of a traced sweep — per-scenario mean energy, simulated time,
retransmission and drop counts, plus the derived fairness/energy
savings the paper headlines. ``greenenvy obs snapshot`` produces one
from a trace directory's journal; ``greenenvy obs diff`` compares a
later trace against it with per-metric relative tolerances and exits
non-zero on drift, which is what lets CI gate on "the reproduction
still reproduces".

Every value in a snapshot is a pure function of (scenario, seed) — the
journal's deterministic fields only. A snapshot holds no wall time:
that is a property of the machine, not of the science, and ``obs
report`` prints it for a trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.analysis.tables import format_table
from repro.errors import ObservabilityError

#: snapshot document schema version
BASELINE_VERSION = 1

#: per-metric relative tolerances, keyed by the metric's leaf name (the
#: part after the last "/"). Energies and times are floats that may
#: drift across Python/libm builds; event counts are integers with no
#: legitimate drift at all.
DEFAULT_METRIC_REL_TOL: Dict[str, float] = {
    "energy_j": 1e-4,
    "sim_time_s": 1e-4,
    "savings_vs_fair_percent": 1e-3,
    "retransmissions": 0.0,
    "bottleneck_drops": 0.0,
    "runs": 0.0,
}

#: fallback for metric names not in the table
FALLBACK_REL_TOL = 1e-4

#: scenario-name suffix marking the fair-CCA arm savings are computed
#: against (fig1 names its arms ``fig1-fair`` / ``fig1-<plan>``)
FAIR_SUFFIX = "-fair"


def snapshot_from_journal(
    events: Sequence[Mapping[str, Any]],
) -> Dict[str, Any]:
    """Build a baseline snapshot from a journal's event stream.

    Gated metrics (all deterministic): per-scenario means of energy,
    simulated time, retransmissions and bottleneck drops over the
    scenario's finished runs, a total run count, and — when a sibling
    scenario named ``<prefix>-fair`` exists — the energy savings
    percentage relative to it (the paper's headline number).
    """
    finished = [e for e in events if e.get("event") == "run_finished"]
    if not finished:
        raise ObservabilityError(
            "journal has no run_finished events to snapshot"
        )
    by_scenario: Dict[str, List[Mapping[str, Any]]] = {}
    for record in finished:
        by_scenario.setdefault(str(record.get("scenario", "?")), []).append(
            record
        )

    def _mean(records: List[Mapping[str, Any]], pick) -> float:
        return sum(pick(r) for r in records) / len(records)

    metrics: Dict[str, float] = {"total/runs": float(len(finished))}
    energies: Dict[str, float] = {}
    for scenario in sorted(by_scenario):
        records = by_scenario[scenario]
        energy = _mean(records, lambda r: float(r.get("energy_j", 0.0)))
        energies[scenario] = energy
        metrics[f"{scenario}/energy_j"] = energy
        metrics[f"{scenario}/sim_time_s"] = _mean(
            records, lambda r: float(r.get("sim_time_s", 0.0))
        )
        metrics[f"{scenario}/retransmissions"] = _mean(
            records,
            lambda r: float(dict(r.get("counters") or {}).get("retransmissions", 0.0)),
        )
        metrics[f"{scenario}/bottleneck_drops"] = _mean(
            records,
            lambda r: float(dict(r.get("counters") or {}).get("bottleneck_drops", 0.0)),
        )
        # Measurement-kind-specific scalars (e.g. a fabric run's
        # host/switch energy split and FCT percentiles) gate too: every
        # extras value is deterministic by the RunMeasurement contract.
        extras_keys = sorted(
            {key for r in records for key in dict(r.get("extras") or {})}
        )
        for key in extras_keys:
            metrics[f"{scenario}/{key}"] = _mean(
                records,
                lambda r, k=key: float(dict(r.get("extras") or {}).get(k, 0.0)),
            )

    # The paper's headline: energy savings of each arm versus the fair
    # arm of the same experiment (matched by name prefix).
    for scenario, energy in energies.items():
        if scenario.endswith(FAIR_SUFFIX):
            continue
        prefix = scenario.split("-", 1)[0]
        fair = energies.get(prefix + FAIR_SUFFIX)
        if fair is None or fair <= 0:
            continue
        metrics[f"{scenario}/savings_vs_fair_percent"] = (
            100.0 * (fair - energy) / fair
        )

    return {"version": BASELINE_VERSION, "metrics": metrics}


def save_baseline(
    snapshot: Mapping[str, Any], path: Union[str, Path]
) -> None:
    """Write a snapshot as stable, committed-friendly JSON."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_baseline(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a snapshot document, validating its shape."""
    target = Path(path)
    if not target.exists():
        raise ObservabilityError(f"no baseline at {target}")
    try:
        document = json.loads(target.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ObservabilityError(f"{target}: bad baseline JSON: {exc}") from exc
    if not isinstance(document, dict) or "metrics" not in document:
        raise ObservabilityError(f"{target}: baseline lacks a 'metrics' map")
    return document


@dataclass
class DriftRow:
    """One metric's comparison between a baseline and a current run."""

    key: str
    baseline: Optional[float]
    current: Optional[float]
    rel_delta: float
    tolerance: float
    status: str  # ok | regressed | missing | new

    @property
    def gating(self) -> bool:
        """Whether this row should fail a CI gate."""
        return self.status in ("regressed", "missing")


def _tolerance_for(key: str, tolerances: Mapping[str, float]) -> float:
    leaf = key.rsplit("/", 1)[-1]
    return tolerances.get(leaf, FALLBACK_REL_TOL)


def _relative_delta(base: float, current: float) -> float:
    if base == current:
        return 0.0
    eps = 1e-9
    return abs(current - base) / max(abs(base), eps)


def compare(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    tolerances: Optional[Mapping[str, float]] = None,
) -> List[DriftRow]:
    """Diff two snapshots' gated metrics into per-metric drift rows.

    A baseline metric absent from the current run is a regression
    (``missing``) — a disappeared scenario must be an explicit baseline
    update, never a silent pass. A current metric absent from the
    baseline is informational (``new``).
    """
    tols = dict(DEFAULT_METRIC_REL_TOL)
    if tolerances:
        tols.update(tolerances)
    base_metrics = dict(baseline.get("metrics") or {})
    cur_metrics = dict(current.get("metrics") or {})
    rows: List[DriftRow] = []
    for key in sorted(set(base_metrics) | set(cur_metrics)):
        tolerance = _tolerance_for(key, tols)
        if key not in cur_metrics:
            rows.append(
                DriftRow(
                    key=key,
                    baseline=float(base_metrics[key]),
                    current=None,
                    rel_delta=float("inf"),
                    tolerance=tolerance,
                    status="missing",
                )
            )
            continue
        if key not in base_metrics:
            rows.append(
                DriftRow(
                    key=key,
                    baseline=None,
                    current=float(cur_metrics[key]),
                    rel_delta=float("inf"),
                    tolerance=tolerance,
                    status="new",
                )
            )
            continue
        base = float(base_metrics[key])
        cur = float(cur_metrics[key])
        rel = _relative_delta(base, cur)
        rows.append(
            DriftRow(
                key=key,
                baseline=base,
                current=cur,
                rel_delta=rel,
                tolerance=tolerance,
                status="ok" if rel <= tolerance else "regressed",
            )
        )
    return rows


def has_regression(rows: Sequence[DriftRow]) -> bool:
    """Whether any row fails the gate (regressed or missing)."""
    return any(row.gating for row in rows)


def format_drift_table(rows: Sequence[DriftRow]) -> str:
    """Human-readable drift report (the ``obs diff`` output)."""
    if not rows:
        return "no metrics to compare"

    def _cell(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:.6g}"

    body = format_table(
        ["metric", "baseline", "current", "rel delta", "tol", "status"],
        [
            (
                row.key,
                _cell(row.baseline),
                _cell(row.current),
                "inf" if row.rel_delta == float("inf") else f"{row.rel_delta:.3g}",
                f"{row.tolerance:.3g}",
                row.status.upper() if row.gating else row.status,
            )
            for row in rows
        ],
    )
    gating = [row for row in rows if row.gating]
    verdict = (
        f"DRIFT: {len(gating)} metric(s) beyond tolerance"
        if gating
        else f"ok: {len(rows)} metric(s) within tolerance"
    )
    return body + "\n\n" + verdict
