"""TCP Westwood+ (Gerla et al. 2001).

Reno-style growth, but on loss the window is set from an end-to-end
bandwidth estimate instead of blind halving:

    ssthresh = BWE * RTT_min / MSS

The bandwidth estimate is an EWMA over per-ACK delivery samples
(bytes ACKed / inter-ACK time), as in the Linux ``tcp_westwood``
implementation's "+" variant.
"""

from __future__ import annotations

from typing import Optional

from repro.cc.base import AckEvent, CongestionControl
from repro.units import BITS_PER_BYTE

#: EWMA smoothing for the bandwidth filter (Westwood+ uses 7/8 old).
BWE_GAIN = 1.0 / 8.0


class Westwood(CongestionControl):
    """TCP Westwood+: bandwidth-estimate-driven loss response."""

    name = "westwood"
    #: Reno growth + bandwidth filter update per ACK
    ack_cost_units = 0.95

    def __init__(self, ctx):
        super().__init__(ctx)
        self._bwe_bps: Optional[float] = None
        self._last_ack_time: Optional[float] = None

    def _update_bwe(self, event: AckEvent) -> None:
        now = self.ctx.now
        if self._last_ack_time is not None:
            dt = now - self._last_ack_time
            if dt > 0 and event.newly_acked_bytes > 0:
                sample = event.newly_acked_bytes * BITS_PER_BYTE / dt
                if self._bwe_bps is None:
                    self._bwe_bps = sample
                else:
                    self._bwe_bps += BWE_GAIN * (sample - self._bwe_bps)
        self._last_ack_time = now

    def on_ack(self, event: AckEvent) -> None:
        self._update_bwe(event)
        super().on_ack(event)  # Reno growth + base charge

    def on_dupack(self, event: AckEvent) -> None:
        self._update_bwe(event)
        super().on_dupack(event)

    def _bandwidth_window(self) -> Optional[float]:
        if self._bwe_bps is None or self.ctx.min_rtt is None:
            return None
        return self._bwe_bps * self.ctx.min_rtt / BITS_PER_BYTE

    def on_congestion_event(self, event: AckEvent) -> None:
        self.ctx.charge(self.ack_cost_units)
        window = self._bandwidth_window()
        if window is None:
            super().on_congestion_event(event)
            return
        self.ssthresh = max(self.min_cwnd, window)
        self.cwnd = self.ssthresh
        self._clamp()

    def on_rto(self) -> None:
        self.ctx.charge(self.ack_cost_units)
        window = self._bandwidth_window()
        if window is not None:
            self.ssthresh = max(self.min_cwnd, window)
        else:
            self.ssthresh = max(self.min_cwnd, self.cwnd / 2.0)
        self.cwnd = self.min_cwnd
        self._clamp()
