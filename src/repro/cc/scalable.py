"""Scalable TCP (Kelly 2003).

Replaces AIMD with MIMD: grow by a fixed 0.01 MSS per ACKed MSS (so
recovery time after a loss is constant regardless of window size) and cut
by only 1/8 on congestion. Matches Linux's ``tcp_scalable``.
"""

from __future__ import annotations

from repro.cc.base import MIN_CWND_SEGMENTS, AckEvent, CongestionControl

#: per-ACK additive constant (Linux: 0.01 via ai=100 shift)
SCALABLE_AI = 0.01
#: multiplicative decrease factor (Linux: 0.875)
SCALABLE_MD = 0.125


class Scalable(CongestionControl):
    """Scalable TCP: constant-time recovery MIMD control."""

    name = "scalable"
    #: barely more work than Reno (shift-based arithmetic in the kernel)
    ack_cost_units = 1.05

    def on_ack(self, event: AckEvent) -> None:
        self.ctx.charge(self.ack_cost_units)
        # once per ACK: in_slow_start and _clamp are written out, not called
        remainder = event.newly_acked_bytes
        if self.cwnd < self.ssthresh:
            remainder = self.slow_start(remainder)
        if remainder > 0:
            self.cwnd += max(1, int(SCALABLE_AI * remainder))
        self.cwnd = max(MIN_CWND_SEGMENTS * self.ctx.mss, self.cwnd)

    def on_congestion_event(self, event: AckEvent) -> None:
        self.ctx.charge(self.ack_cost_units)
        self.ssthresh = max(self.min_cwnd, self.cwnd * (1.0 - SCALABLE_MD))
        self.cwnd = self.ssthresh
        self._clamp()
