"""TCP Vegas (Brakmo et al. 1994).

Delay-based avoidance: compare expected throughput (cwnd / base_rtt)
with actual throughput (cwnd / rtt). The difference, in segments,

    diff = cwnd * (rtt - base_rtt) / rtt

estimates how many segments sit in queues. Keep it between alpha and
beta by adjusting cwnd one segment per RTT; fall back to Reno during
slow start and loss recovery, as the kernel module does.
"""

from __future__ import annotations

from typing import Optional

from repro.cc.base import MIN_CWND_SEGMENTS, AckEvent, CongestionControl

#: Vegas target queue occupancy bounds, in segments.
VEGAS_ALPHA = 2.0
VEGAS_BETA = 4.0


class Vegas(CongestionControl):
    """TCP Vegas: delay-based congestion avoidance."""

    name = "vegas"
    #: two RTT comparisons + min tracking per ACK
    ack_cost_units = 1.15

    def __init__(self, ctx):
        super().__init__(ctx)
        self._last_adjust: Optional[float] = None

    def on_ack(self, event: AckEvent) -> None:
        self.ctx.charge(self.ack_cost_units)
        # once per ACK: in_slow_start and _clamp are written out, not called
        remainder = event.newly_acked_bytes
        mss = self.ctx.mss
        if self.cwnd < self.ssthresh:
            remainder = self.slow_start(remainder)
            self.cwnd = max(MIN_CWND_SEGMENTS * mss, self.cwnd)
            if remainder <= 0:
                return
        base_rtt = self.ctx.min_rtt
        rtt = event.rtt_sample or self.ctx.srtt
        if base_rtt is None or rtt is None or rtt <= 0:
            return
        # Adjust at most once per RTT.
        now = self.ctx.now
        if self._last_adjust is not None and now - self._last_adjust < rtt:
            return
        self._last_adjust = now
        cwnd_seg = self.cwnd / mss
        diff = cwnd_seg * (rtt - base_rtt) / rtt
        if diff < VEGAS_ALPHA:
            self.cwnd += mss
        elif diff > VEGAS_BETA:
            self.cwnd -= mss
        self.cwnd = max(MIN_CWND_SEGMENTS * mss, self.cwnd)

    def on_congestion_event(self, event: AckEvent) -> None:
        # Vegas halves like Reno on actual loss.
        super().on_congestion_event(event)
