"""Swift (Kumar et al., SIGCOMM 2020) — Google's production delay-based CCA.

The paper's §5 names Swift as a production algorithm it could not
evaluate for lack of a public implementation; this module provides a
mechanistically faithful one so the energy benchmark the paper calls
for can include it.

Swift keeps the end-to-end delay near a *target*:

    target = base_target + fs_range * clamp((1/sqrt(w) - 1/sqrt(fs_max_w))
                                            / (1/sqrt(fs_min_w) - 1/sqrt(fs_max_w)))

(flow scaling: small windows tolerate more delay). Per ACK:

* delay < target  → additive increase ``ai`` per RTT,
* delay >= target → multiplicative decrease proportional to the excess,
  bounded by ``max_mdf`` and applied at most once per RTT.

On loss Swift halves like Reno (simplified from the paper's
retransmit-timeout handling).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.cc.base import MIN_CWND_SEGMENTS, AckEvent, CongestionControl
from repro.units import usec

#: fabric base target delay, seconds (Swift uses ~25-50 us fabrics; our
#: testbed's base RTT is 40 us)
SWIFT_BASE_TARGET_S = usec(70)
#: flow-scaling range added to the target for small windows
SWIFT_FS_RANGE_S = usec(60)
SWIFT_FS_MIN_W = 0.1   # segments
SWIFT_FS_MAX_W = 400.0
#: additive increase, segments per RTT
SWIFT_AI = 1.0
#: maximum multiplicative decrease factor per RTT
SWIFT_MAX_MDF = 0.5
#: decrease gain (beta in the paper)
SWIFT_BETA = 0.8


class Swift(CongestionControl):
    """Swift: target-delay congestion control."""

    name = "swift"
    #: per-ACK delay arithmetic incl. two square roots (flow scaling)
    ack_cost_units = 1.18

    def __init__(self, ctx):
        super().__init__(ctx)
        self._last_decrease: Optional[float] = None

    def target_delay(self) -> float:
        """Current target delay, including flow scaling."""
        w = max(self.cwnd / self.ctx.mss, SWIFT_FS_MIN_W)
        inv_sqrt = 1.0 / math.sqrt(w)
        lo = 1.0 / math.sqrt(SWIFT_FS_MAX_W)
        hi = 1.0 / math.sqrt(SWIFT_FS_MIN_W)
        fraction = min(1.0, max(0.0, (inv_sqrt - lo) / (hi - lo)))
        return SWIFT_BASE_TARGET_S + SWIFT_FS_RANGE_S * fraction

    def _can_decrease(self) -> bool:
        rtt = self.ctx.srtt or self.ctx.min_rtt or 0.0
        last = self._last_decrease
        return last is None or self.ctx.now - last >= rtt

    def on_ack(self, event: AckEvent) -> None:
        self.ctx.charge(self.ack_cost_units)
        delay = event.rtt_sample
        if delay is None:
            return
        mss = self.ctx.mss
        target = self.target_delay()
        if delay < target:
            # Additive increase: ai segments per RTT, spread per ACK.
            self.cwnd += int(
                SWIFT_AI * mss * event.newly_acked_bytes / max(self.cwnd, 1)
            ) or 1
        elif self._can_decrease():
            self._last_decrease = self.ctx.now
            excess = (delay - target) / delay
            factor = max(1.0 - SWIFT_BETA * excess, 1.0 - SWIFT_MAX_MDF)
            self.cwnd = int(self.cwnd * factor)
        self.cwnd = max(MIN_CWND_SEGMENTS * mss, self.cwnd)

    def on_congestion_event(self, event: AckEvent) -> None:
        self.ctx.charge(self.ack_cost_units)
        if self._can_decrease():
            self._last_decrease = self.ctx.now
            self.ssthresh = max(self.min_cwnd, self.cwnd * (1.0 - SWIFT_MAX_MDF))
            self.cwnd = self.ssthresh
        self._clamp()
