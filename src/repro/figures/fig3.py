"""Figure 3: throughput-over-time, one panel per scheduling policy.

The paper's original figure: under ``fair``, two flows hold ~5 Gb/s
each until both finish at ~2 s (scaled); under ``serialized`` (the
full-speed-then-idle allocation the paper calls FSTI), flow 1 runs at
~10 Gb/s then idles while flow 2 runs at ~10 Gb/s — and both average
5 Gb/s over the experiment. Any registered :mod:`repro.sched` policy
can be rendered as an extra panel; the retired "fsti" spelling still
resolves to ``serialized`` through the registry aliases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import run_once
from repro.sched import resolve_policy_list, resolve_policy_name
from repro.sim.probe import THROUGHPUT_CHANNEL, TimeSeriesProbeSink
from repro.sim.trace import TimeSeries
from repro.units import gbps, msec, to_gbps

DEFAULT_TRANSFER_BYTES = 12_500_000
DEFAULT_CAPACITY_BPS = gbps(10.0)

#: the figure's two classic panels (left: fair sharing, right: FSTI)
DEFAULT_POLICIES = ("fair", "serialized")


@dataclass
class Fig3Panel:
    """One policy's run: per-flow throughput series plus the window."""

    policy: str
    series: Dict[int, TimeSeries]
    duration_s: float


@dataclass
class Fig3Result:
    """Per-flow throughput series for every rendered policy panel."""

    panels: Dict[str, Fig3Panel]

    def _panel(self, which: str) -> Fig3Panel:
        name = resolve_policy_name(which)
        if name not in self.panels:
            rendered = ", ".join(sorted(self.panels))
            raise ExperimentError(
                f"no fig3 panel for policy {which!r} (rendered: {rendered})"
            )
        return self.panels[name]

    def panel(self, which: str) -> List[Tuple[int, TimeSeries]]:
        """Ordered (flow, series) pairs for one policy's panel."""
        return sorted(self._panel(which).series.items())

    def duration_s(self, which: str) -> float:
        """One panel's measured window (time until its last flow ends)."""
        return self._panel(which).duration_s

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


def _per_flow_throughput(
    sink: TimeSeriesProbeSink, n_flows: int
) -> Dict[int, TimeSeries]:
    """Per-flow goodput series from a run's collected telemetry."""
    return {
        flow_id: sink.series(THROUGHPUT_CHANNEL, f"flow-{flow_id}")
        for flow_id in range(1, n_flows + 1)
    }


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
    """Produce one Figure 3 panel per policy (one run each; timeseries)."""
    names = resolve_policy_list(
        policies, DEFAULT_POLICIES, "fig3 panels", require_fair=False
    )
    panels: Dict[str, Fig3Panel] = {}
    for name in names:
        flows = _PANEL_FLOWS.get(name, _uncapped_pair)(
            transfer_bytes, capacity_bps, cca
        )
        scenario = Scenario(
            f"fig3-{name}",
            flows=flows,
            probe_interval_s=probe_interval_s,
            policy=name,
        )
        # The figure consumes the telemetry path: each run gets a
        # collecting probe sink (no downsampling — the probes already
        # pace sampling at probe_interval_s) and the panels read
        # per-flow throughput streams off it, the same series a traced
        # run writes to telemetry.jsonl.
        sink = TimeSeriesProbeSink()
        measurement = run_once(scenario, seed=seed, probe_sink=sink)
        panels[name] = Fig3Panel(
            policy=name,
            series=_per_flow_throughput(sink, len(flows)),
            duration_s=measurement.duration_s,
        )
    return Fig3Result(panels=panels)
