"""Per-flow energy attribution: which flows burn the joules.

The paper's §4 argument is that *when* flows run decides what the
fleet pays — an unfair full-speed-then-idle allocation shortens active
periods and saves energy. This module makes that visible per flow: it
splits a run's measured joules (host CPU plus switch ports for fabric
runs, via :class:`~repro.energy.fleet.FleetEnergyReport` totals) across
concurrent flows by throughput share on virtual-time windows.

The ledger is a pure post-run computation over a
:class:`~repro.harness.runner.RunMeasurement` — it never touches the
simulation (``obs-no-feedback`` bans the reverse import):

1. flow start/end times tile the measurement window into maximal
   intervals on which the set of active flows is constant;
2. each window carries energy proportional to its share of the
   measured duration;
3. a window's energy splits across its active flows proportionally to
   their mean transfer rate; windows with no active flow accrue to the
   ``idle`` pseudo-entity.

Every split assigns the final share by residual, so the attributed
joules sum to the measured total *exactly* (the energy-additivity
property test holds this to 1e-9). Results persist as one
``flow_energy_j`` telemetry sample per entity, stamped with virtual
time like every other probe channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.sim.probe import ProbeSink

if TYPE_CHECKING:
    from repro.harness.runner import RunMeasurement

#: telemetry channel carrying one attributed-joules sample per entity
FLOW_ENERGY_CHANNEL = "flow_energy_j"

#: the pseudo-entity windows with no active flow accrue to
IDLE_ENTITY = "idle"

#: guards rate computation for degenerate zero-duration flows
_FLOW_DURATION_EPS = 1e-12


@dataclass(frozen=True)
class FlowActivity:
    """One flow's active interval and bytes moved, for attribution."""

    entity: str
    start_s: float
    end_s: float
    transferred_bytes: int

    @property
    def rate_weight(self) -> float:
        """Mean transfer rate (the throughput-share weight)."""
        duration = max(self.end_s - self.start_s, _FLOW_DURATION_EPS)
        return self.transferred_bytes / duration


def measurement_activities(
    measurement: "RunMeasurement",
) -> List[FlowActivity]:
    """The measurement's flows as attribution inputs, id-ordered."""
    return [
        FlowActivity(
            entity=f"flow-{result.flow_id}",
            start_s=result.start_time,
            end_s=result.end_time,
            transferred_bytes=result.bytes_transferred,
        )
        for result in sorted(
            measurement.flow_results, key=lambda r: r.flow_id
        )
    ]


def attribute_energy(
    activities: Sequence[FlowActivity],
    total_energy_j: float,
    duration_s: float,
) -> Dict[str, float]:
    """Split ``total_energy_j`` across flows by windowed throughput share.

    Returns joules per entity (plus :data:`IDLE_ENTITY`); values sum to
    ``total_energy_j`` exactly — every window's last share and the last
    window's energy are assigned by residual rather than recomputed, so
    no floating-point drift accumulates.
    """
    if duration_s <= 0:
        raise ObservabilityError(
            f"cannot attribute energy over a {duration_s}s window"
        )
    result: Dict[str, float] = {a.entity: 0.0 for a in activities}
    if len(result) != len(activities):
        raise ObservabilityError("duplicate flow entities in attribution")
    result[IDLE_ENTITY] = 0.0

    bounds = {0.0, duration_s}
    for activity in activities:
        bounds.add(min(max(activity.start_s, 0.0), duration_s))
        bounds.add(min(max(activity.end_s, 0.0), duration_s))
    edges = sorted(bounds)

    remaining = total_energy_j
    for i in range(len(edges) - 1):
        t0, t1 = edges[i], edges[i + 1]
        if t1 <= t0:
            continue
        if i == len(edges) - 2:
            window_j = remaining  # the residual: windows sum exactly
        else:
            window_j = total_energy_j * (t1 - t0) / duration_s
            remaining -= window_j
        active = [
            a for a in activities if a.start_s < t1 and a.end_s > t0
        ]
        if not active:
            result[IDLE_ENTITY] += window_j
            continue
        weight_sum = sum(a.rate_weight for a in active)
        assigned = 0.0
        for activity in active[:-1]:
            if weight_sum > 0:
                share = activity.rate_weight / weight_sum
            else:
                share = 1.0 / len(active)  # zero-byte flows split evenly
            share_j = window_j * share
            result[activity.entity] += share_j
            assigned += share_j
        result[active[-1].entity] += window_j - assigned
    return result


def attribute_measurement(measurement: "RunMeasurement") -> Dict[str, float]:
    """Per-entity joules for one run's measured total.

    For fabric runs ``measurement.energy_j`` is already the
    :class:`~repro.energy.fleet.FleetEnergyReport` fleet total (host
    CPUs plus switches), so the ledger covers both pools; the
    ``host_energy_j``/``switch_energy_j`` extras scale any entity's
    share into its per-pool split (shares are pool-independent).
    """
    return attribute_energy(
        measurement_activities(measurement),
        total_energy_j=measurement.energy_j,
        duration_s=measurement.duration_s,
    )


def record_flow_energy(
    sink: ProbeSink, measurement: "RunMeasurement"
) -> None:
    """Persist a run's attribution ledger into its telemetry sink.

    One ``flow_energy_j`` sample per entity, stamped with the end of
    the measurement window (virtual time, like every probe sample).
    No-op for disabled sinks and zero-length windows.
    """
    if not sink.enabled or measurement.duration_s <= 0:
        return
    attribution = attribute_measurement(measurement)
    for entity in sorted(attribution):
        sink.sample(
            measurement.duration_s,
            FLOW_ENERGY_CHANNEL,
            entity,
            attribution[entity],
        )


def top_energy_flows(
    attribution: Dict[str, float], top: int = 5
) -> List[Tuple[str, float, float]]:
    """The ``top`` hungriest entities as (entity, joules, share-percent).

    The idle bucket competes like any flow — an idle-dominated run
    *should* show ``idle`` on top; that is the paper's §4 story.
    """
    total = sum(attribution.values())
    if total <= 0:
        return []
    ranked = sorted(attribution.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        (entity, joules, 100.0 * joules / total)
        for entity, joules in ranked[:top]
    ]


def top_flow_share_percent(measurement: "RunMeasurement") -> float:
    """Share of a run's energy attributed to its hungriest *flow*.

    Excludes the idle bucket: this is the figure-table number that
    shows how concentrated a policy leaves the energy bill (a
    serialized schedule concentrates it; fair sharing flattens it).
    """
    attribution = attribute_measurement(measurement)
    attribution.pop(IDLE_ENTITY, None)
    total = measurement.energy_j
    if total <= 0 or not attribution:
        return 0.0
    return 100.0 * max(attribution.values()) / total


def summarize_flow_energy(
    records: Sequence[Dict[str, object]], top: int = 5
) -> str:
    """The ``obs report`` view: hungriest entities across a whole trace.

    Sums each entity's attributed joules over every run in the
    telemetry file and ranks the ``top``; empty string when the trace
    carries no attribution samples (telemetry recorded without flows,
    or an older trace).
    """
    ledgers = attribution_from_telemetry(records)
    if not ledgers:
        return ""
    totals: Dict[str, float] = {}
    for ledger in ledgers.values():
        for entity, joules in ledger.items():
            totals[entity] = totals.get(entity, 0.0) + joules
    ranked = top_energy_flows(totals, top=top)
    lines = [
        f"energy attribution: {len(ledgers)} runs, "
        f"{sum(totals.values()):.3f} J attributed"
    ]
    for entity, joules, share in ranked:
        lines.append(f"  {entity:<24} {joules:>10.4f} J  {share:>5.1f}%")
    return "\n".join(lines)


def attribution_from_telemetry(
    records: Sequence[Dict[str, object]],
) -> Dict[Tuple[str, int], Dict[str, float]]:
    """Rebuild per-run attribution ledgers from telemetry records.

    Filters a telemetry file's records down to the
    :data:`FLOW_ENERGY_CHANNEL` samples and groups them by
    (scenario, seed); each entity's ledger value is its final sample.
    """
    ledgers: Dict[Tuple[str, int], Dict[str, float]] = {}
    for record in records:
        if record.get("channel") != FLOW_ENERGY_CHANNEL:
            continue
        values = record.get("values") or []
        if not isinstance(values, list) or not values:
            continue
        key = (str(record.get("scenario", "")), int(record.get("seed", 0)))  # type: ignore[call-overload]
        ledgers.setdefault(key, {})[str(record.get("entity", ""))] = float(
            values[-1]  # type: ignore[arg-type]
        )
    return ledgers
