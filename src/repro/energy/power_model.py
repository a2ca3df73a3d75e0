"""Package power model: concave-in-throughput with calibrated extras.

The model (structure in DESIGN.md, constants in
:mod:`repro.energy.calibration`) maps one CPU package's activity over an
interval to average power:

    P = P_idle + C_load(L) + S(L) * n(t) + beta_pkt * excess_pps
        + beta_cc * excess_cc_rate + beta_retx * retx_rate

``n`` is strictly concave and increasing — the property Theorem 1 needs —
and the model degenerates to exactly the paper's three anchor points for
the reference configuration (CUBIC, MTU 9000, idle host).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy import calibration as cal
from repro.errors import EnergyModelError
from repro.units import to_gbps


@dataclass
class IntervalActivity:
    """What one CPU package did during one accounting interval."""

    duration_s: float
    wire_bytes: int = 0          # bytes sent + received by pinned flows
    packet_events: int = 0       # data + ACK packets handled
    cc_cost_units: float = 0.0   # CCA computation, relative units
    retransmissions: int = 0
    background_load: float = 0.0  # fraction of cores busy with `stress`

    @property
    def throughput_gbps(self) -> float:
        """Average wire throughput attributed to the package, Gb/s."""
        if self.duration_s <= 0:
            return 0.0
        return to_gbps(self.wire_bytes * 8.0 / self.duration_s)


class PowerModel:
    """Converts package activity to watts. Stateless and reusable.

    Parameters mirror the calibration constants so the ablation studies can
    sweep them (e.g. force a *linear* network curve to show Theorem 1's
    savings vanish without concavity).
    """

    def __init__(
        self,
        p_idle_w: float = cal.P_IDLE_W,
        a_net: float = cal.A_NET,
        gamma_net: float = cal.GAMMA_NET,
        beta_pkt: float = cal.BETA_PKT_W_PER_PPS,
        beta_cc: float = cal.BETA_CC_W_PER_UNIT_PER_S,
        beta_retx: float = cal.BETA_RETX_W_PER_RPS,
        load_table=cal.C_LOAD_TABLE,
        attenuation_table=cal.S_ATTENUATION_TABLE,
    ):
        if p_idle_w < 0:
            raise EnergyModelError(f"idle power must be >= 0, got {p_idle_w}")
        if gamma_net <= 0 or gamma_net > 1:
            raise EnergyModelError(
                f"gamma must be in (0, 1] for a concave increasing curve, "
                f"got {gamma_net}"
            )
        self.p_idle_w = p_idle_w
        self.a_net = a_net
        self.gamma_net = gamma_net
        self.beta_pkt = beta_pkt
        self.beta_cc = beta_cc
        self.beta_retx = beta_retx
        self.load_table = load_table
        self.attenuation_table = attenuation_table

    # -- curve pieces ------------------------------------------------------

    def network_power_w(self, throughput_gbps: float) -> float:
        """The concave network contribution n(t), W above idle."""
        if throughput_gbps <= 0:
            return 0.0
        return self.a_net * throughput_gbps**self.gamma_net

    def load_power_w(self, load: float) -> float:
        """Background-compute contribution C_load(L), W above idle."""
        return cal.interpolate(self.load_table, load)

    def attenuation(self, load: float) -> float:
        """Network-power attenuation S(L) on a loaded package."""
        return cal.interpolate(self.attenuation_table, load)

    # -- full model ---------------------------------------------------------

    #: component keys of :meth:`power_components`, in display order
    COMPONENT_KEYS = (
        "idle",
        "background_load",
        "network",
        "packet_excess",
        "cc_compute",
        "retransmissions",
        "floor_adjustment",
    )

    def power_components(self, activity: IntervalActivity) -> "dict[str, float]":
        """Average package power over the interval, broken down by
        mechanism — the per-mechanism attribution §5 of the paper plans
        to investigate ("flow state, packet pacing, cwnd calculation
        arithmetic, and so on").

        The components sum exactly to :meth:`power_w`'s value;
        ``floor_adjustment`` absorbs the clamp when micro-work credits
        would otherwise push the total below idle + load.
        """
        if activity.duration_s <= 0:
            raise EnergyModelError(
                f"interval duration must be > 0, got {activity.duration_s}"
            )
        t = activity.throughput_gbps
        load = activity.background_load

        # Excesses relative to the reference configuration at throughput t.
        ref_pps = cal.reference_packet_rate(t)
        ref_events = ref_pps * cal.REF_EVENTS_PER_DATA_PACKET
        actual_events = activity.packet_events / activity.duration_s
        ref_cc_rate = ref_pps * cal.REF_ACKS_PER_PACKET * cal.REF_CC_UNITS_PER_ACK
        actual_cc_rate = activity.cc_cost_units / activity.duration_s
        retx_rate = activity.retransmissions / activity.duration_s

        components = {
            "idle": self.p_idle_w,
            "background_load": self.load_power_w(load),
            "network": self.attenuation(load) * self.network_power_w(t),
            "packet_excess": self.beta_pkt * (actual_events - ref_events),
            "cc_compute": self.beta_cc * (actual_cc_rate - ref_cc_rate),
            "retransmissions": self.beta_retx * retx_rate,
            "floor_adjustment": 0.0,
        }
        total = sum(components.values())
        floor = components["idle"] + components["background_load"]
        if total < floor:
            components["floor_adjustment"] = floor - total
        return components

    def power_w(self, activity: IntervalActivity) -> float:
        """Average package power over the interval, watts."""
        return sum(self.power_components(activity).values())

    def smooth_sending_power_w(
        self, throughput_gbps: float, load: float = 0.0
    ) -> float:
        """Power for reference-config smooth sending at ``t`` Gb/s.

        This is the closed-form curve of the paper's Fig. 2 blue line
        (and Fig. 4's family under load).
        """
        return (
            self.p_idle_w
            + self.load_power_w(load)
            + self.attenuation(load) * self.network_power_w(throughput_gbps)
        )

    def full_speed_then_idle_power_w(
        self,
        average_throughput_gbps: float,
        line_rate_gbps: float = cal.LINE_RATE_GBPS,
        load: float = 0.0,
    ) -> float:
        """Time-averaged power for bursting at line rate then idling.

        Sending a fraction f = t_avg / line of the time at line rate and
        idling otherwise gives the chord (orange tangent line of Fig. 2):
        P = (1-f) * P(0) + f * P(line).
        """
        if average_throughput_gbps < 0 or average_throughput_gbps > line_rate_gbps:
            raise EnergyModelError(
                f"average throughput {average_throughput_gbps} outside "
                f"[0, {line_rate_gbps}]"
            )
        f = average_throughput_gbps / line_rate_gbps
        idle = self.smooth_sending_power_w(0.0, load)
        busy = self.smooth_sending_power_w(line_rate_gbps, load)
        return (1 - f) * idle + f * busy
