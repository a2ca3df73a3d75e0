"""HighSpeed TCP (RFC 3649).

Makes the AIMD increase a(w) grow and the decrease b(w) shrink as the
window grows, so large-BDP flows recover in reasonable time. We use the
RFC's analytic form rather than the lookup table:

    for w > W_low:  b(w) = (B_high - 0.5) * (ln w - ln W_low)
                            / (ln W_high - ln W_low) + 0.5
                    a(w) = w^2 * p(w) * 2 * b(w) / (2 - b(w))
    with p(w) = 0.078 / w^1.2   (the HSTCP response function)

below ``W_low`` (38 segments) it is plain Reno.
"""

from __future__ import annotations

import math

from repro.cc.base import MIN_CWND_SEGMENTS, AckEvent, CongestionControl

#: RFC 3649 parameters.
HS_W_LOW = 38.0
HS_W_HIGH = 83000.0
HS_B_HIGH = 0.1


def hstcp_b(w_segments: float) -> float:
    """Decrease factor b(w) per RFC 3649 §5."""
    if w_segments <= HS_W_LOW:
        return 0.5
    frac = (math.log(w_segments) - math.log(HS_W_LOW)) / (
        math.log(HS_W_HIGH) - math.log(HS_W_LOW)
    )
    return (HS_B_HIGH - 0.5) * frac + 0.5


def hstcp_a(w_segments: float) -> float:
    """Increase (segments per RTT) a(w) per RFC 3649 §5."""
    if w_segments <= HS_W_LOW:
        return 1.0
    b = hstcp_b(w_segments)
    p = 0.078 / (w_segments**1.2)
    return max(1.0, (w_segments**2) * p * 2.0 * b / (2.0 - b))


class HighSpeed(CongestionControl):
    """RFC 3649 HighSpeed TCP."""

    name = "highspeed"
    #: log/pow evaluation per ACK (the kernel uses a 70-entry table,
    #: still more lookups + state than Reno)
    ack_cost_units = 1.00

    def on_ack(self, event: AckEvent) -> None:
        self.ctx.charge(self.ack_cost_units)
        # once per ACK: in_slow_start and _clamp are written out, not called
        remainder = event.newly_acked_bytes
        if self.cwnd < self.ssthresh:
            remainder = self.slow_start(remainder)
        mss = self.ctx.mss
        if remainder > 0:
            w = max(1.0, self.cwnd / mss)
            a = hstcp_a(w)
            # a(w) segments per RTT => a*mss*mss/cwnd bytes per ACKed MSS.
            self.cwnd += max(1, int(a * mss * remainder / max(self.cwnd, 1)))
        self.cwnd = max(MIN_CWND_SEGMENTS * mss, self.cwnd)

    def on_congestion_event(self, event: AckEvent) -> None:
        self.ctx.charge(self.ack_cost_units)
        w = max(1.0, self.cwnd / self.ctx.mss)
        b = hstcp_b(w)
        self.ssthresh = max(self.min_cwnd, self.cwnd * (1.0 - b))
        self.cwnd = self.ssthresh
        self._clamp()
