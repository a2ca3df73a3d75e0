"""DCQCN (Zhu et al., SIGCOMM 2015) — the RoCE deployments' rate-based CCA.

Named in the paper's §5 as a production algorithm worth evaluating.
DCQCN is rate-based: the sender maintains a current rate RC and a target
rate RT, reacts to ECN congestion notifications (CNPs) and recovers in
the QCN-style stages:

* on CNP:  RT <- RC;  RC <- RC * (1 - alpha/2);  alpha <- (1-g)alpha + g
* no CNP for an update period: alpha decays, and RC climbs back toward
  RT (fast recovery: RC <- (RT + RC)/2), with RT growing additively
  after enough quiet periods.

The simulated variant paces at RC and keeps cwnd permissive (rate-based
protocols don't window-limit), reacting to the ECN-echo feedback our
receiver already provides; the NIC-offloaded nature of real DCQCN is
reflected in a low per-ACK CPU cost.
"""

from __future__ import annotations

from repro.cc.base import AckEvent, CongestionControl
from repro.units import gbps, mbps, usec

#: alpha gain (DCQCN g)
DCQCN_G = 1.0 / 16.0
#: additive increase of the target rate, bits/s per update period
DCQCN_RAI_BPS = mbps(400)
#: update period: alpha decay / rate increase cadence, seconds
DCQCN_UPDATE_PERIOD_S = usec(100)
#: minimum sending rate
DCQCN_MIN_RATE_BPS = mbps(100)
#: line rate the sender starts at (RoCE NICs start at full rate)
DCQCN_START_RATE_BPS = gbps(10)


class Dcqcn(CongestionControl):
    """DCQCN: ECN-driven rate-based congestion control."""

    name = "dcqcn"
    #: rate updates run on the NIC in real deployments; host CPU sees
    #: little per-ACK work
    ack_cost_units = 0.90
    reacts_per_ack_to_ecn = True

    def __init__(self, ctx):
        super().__init__(ctx)
        self.alpha = 1.0
        self.rc_bps = DCQCN_START_RATE_BPS
        self.rt_bps = DCQCN_START_RATE_BPS
        self._last_cnp = -1.0
        self._last_update = 0.0
        self._quiet_periods = 0
        # rate-based: keep the window permissive, the pacer does the work
        self.cwnd = 400 * ctx.mss
        self.ssthresh = float("inf")

    def _cnp(self) -> None:
        """React to one congestion notification (rate cut)."""
        self.rt_bps = self.rc_bps
        self.rc_bps = max(
            DCQCN_MIN_RATE_BPS, self.rc_bps * (1.0 - self.alpha / 2.0)
        )
        self.alpha = (1.0 - DCQCN_G) * self.alpha + DCQCN_G
        self._quiet_periods = 0

    def _periodic_update(self) -> None:
        """Alpha decay + staged rate recovery, once per update period."""
        now = self.ctx.now
        if now - self._last_update < DCQCN_UPDATE_PERIOD_S:
            return
        self._last_update = now
        self.alpha *= 1.0 - DCQCN_G
        self._quiet_periods += 1
        # Fast recovery toward RT; after 5 quiet periods, additive
        # increase of the target (the QCN "active increase" stage).
        if self._quiet_periods > 5:
            self.rt_bps += DCQCN_RAI_BPS
        self.rc_bps = min((self.rt_bps + self.rc_bps) / 2.0, DCQCN_START_RATE_BPS)
        self.rt_bps = min(self.rt_bps, DCQCN_START_RATE_BPS)

    def on_ack(self, event: AckEvent) -> None:
        self.ctx.charge(self.ack_cost_units)
        # CNPs are rate-limited by the receiver; we rate-limit reactions
        # to one per update period, per the spec.
        if event.ecn_echo or event.ecn_marked_bytes > 0:
            if self.ctx.now - self._last_cnp >= DCQCN_UPDATE_PERIOD_S:
                self._last_cnp = self.ctx.now
                self._cnp()
        else:
            self._periodic_update()

    def on_ecn(self, event: AckEvent) -> None:
        self.ctx.charge(self.ack_cost_units * 0.25)
        # folded into on_ack's CNP handling

    def on_congestion_event(self, event: AckEvent) -> None:
        """RoCE fabrics are lossless; treat rare loss like a hard CNP."""
        self.ctx.charge(self.ack_cost_units)
        self._cnp()

    def on_rto(self) -> None:
        self.ctx.charge(self.ack_cost_units)
        self.rc_bps = max(DCQCN_MIN_RATE_BPS, self.rc_bps / 2.0)

    def on_recovery_exit(self) -> None:
        """Rate-based: the window is not the control variable."""

    def pacing_rate_bps(self) -> float:
        return self.rc_bps
