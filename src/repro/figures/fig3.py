"""Figure 3: throughput-over-time, one panel per scheduling policy.

The paper's original figure: under ``fair``, two flows hold ~5 Gb/s
each until both finish at ~2 s (scaled); under ``serialized`` (the
full-speed-then-idle allocation the paper calls FSTI), flow 1 runs at
~10 Gb/s then idles while flow 2 runs at ~10 Gb/s — and both average
5 Gb/s over the experiment. Any registered :mod:`repro.sched` policy
can be rendered as an extra panel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.figures.arms import Arms, run_arms
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import RunMeasurement
from repro.sched import resolve_policy_list
from repro.sim.trace import TimeSeries
from repro.units import gbps, msec, to_gbps

DEFAULT_TRANSFER_BYTES = 12_500_000
DEFAULT_CAPACITY_BPS = gbps(10.0)

#: the figure's two classic panels (left: fair sharing, right: FSTI)
DEFAULT_POLICIES = ("fair", "serialized")


@dataclass
class Fig3Result:
    """One run per rendered policy panel, with per-flow throughput."""

    arms: Arms

    def _run(self, which: str) -> RunMeasurement:
        return self.arms[which].runs[0]

    def panel(self, which: str) -> List[Tuple[int, TimeSeries]]:
        """Ordered (flow, series) pairs for one policy's panel."""
        return sorted(self._run(which).throughput_series.items())

    def duration_s(self, which: str) -> float:
        """One panel's measured window (time until its last flow ends)."""
        return self._run(which).duration_s

    def mean_throughputs_gbps(self, which: str) -> List[float]:
        """Average per-flow throughput over its panel's full window
        (idle time included — the paper's point is that every flow in
        both classic panels averages C/2 over the experiment)."""
        duration = self.duration_s(which)
        result = []
        for _flow, ts in self.panel(which):
            if not len(ts) or duration <= 0:
                result.append(0.0)
                continue
            interval = (
                (ts.times[-1] - ts.times[0]) / (len(ts) - 1)
                if len(ts) > 1
                else duration
            )
            total_bits = sum(ts.values) * interval
            result.append(to_gbps(total_bits / duration))
        return result


def _capped_pair(
    transfer_bytes: int, capacity_bps: float, cca: str
) -> List[FlowSpec]:
    """The classic fair panel: two flows rate-capped at C/2 each."""
    return [
        FlowSpec(transfer_bytes, cca=cca, target_rate_bps=capacity_bps / 2),
        FlowSpec(transfer_bytes, cca=cca, target_rate_bps=capacity_bps / 2),
    ]


def _uncapped_pair(
    transfer_bytes: int, capacity_bps: float, cca: str
) -> List[FlowSpec]:
    return [
        FlowSpec(transfer_bytes, cca=cca),
        FlowSpec(transfer_bytes, cca=cca),
    ]


#: per-policy flow declarations: the fair panel keeps its paper-faithful
#: C/2 rate caps; every other policy gets the uncapped pair and decides
#: admit/defer itself (dispatch by name — no mode-literal branching)
_PANEL_FLOWS = {"fair": _capped_pair}


def run_fig3(
    transfer_bytes: int = DEFAULT_TRANSFER_BYTES,
    capacity_bps: float = DEFAULT_CAPACITY_BPS,
    cca: str = "cubic",
    probe_interval_s: float = msec(1.0),
    seed: int = 0,
    policies: Optional[Sequence[str]] = None,
) -> Fig3Result:
    """Produce one Figure 3 panel per policy (one run each; timeseries).

    Each run's throughput probes sample every ``probe_interval_s``;
    the panels are the per-flow series its measurement carries.
    """
    names = resolve_policy_list(
        policies, DEFAULT_POLICIES, "fig3 panels", require_fair=False
    )

    def scenario(policy: str) -> Scenario:
        flows = _PANEL_FLOWS.get(policy, _uncapped_pair)(
            transfer_bytes, capacity_bps, cca
        )
        return Scenario(
            f"fig3-{policy}",
            flows=flows,
            probe_interval_s=probe_interval_s,
            policy=policy,
        )

    return Fig3Result(run_arms(scenario, names, seed, "fig3 panels"))
