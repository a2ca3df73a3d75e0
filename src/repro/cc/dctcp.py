"""DCTCP (Alizadeh et al., SIGCOMM 2010).

Uses the *extent* of ECN marking, not its presence: each observation
window (one RTT's worth of ACKed data), estimate the marked fraction F
and smooth it,

    alpha <- (1 - g) * alpha + g * F,   g = 1/16

then on windows that saw marks, cut cwnd by ``alpha / 2``. Growth between
marks is plain Reno. Requires an ECN-marking bottleneck queue
(:class:`~repro.net.queue.EcnQueue`); without marks it degenerates to
Reno, exactly like the kernel module on a non-ECN path.
"""

from __future__ import annotations

from repro.cc.base import MIN_CWND_SEGMENTS, AckEvent, CongestionControl

#: DCTCP gain g (RFC 8257 recommends 1/16).
DCTCP_GAIN = 1.0 / 16.0


class Dctcp(CongestionControl):
    """DCTCP: proportional ECN-based window reduction."""

    name = "dctcp"
    #: Reno growth + per-ACK marked-byte accounting + EWMA per window
    ack_cost_units = 1.22
    #: the sender must deliver every ACK's ECN feedback, not once per RTT
    reacts_per_ack_to_ecn = True

    def __init__(self, ctx):
        super().__init__(ctx)
        self.alpha = 1.0  # start conservative, as RFC 8257 suggests
        self._acked_bytes = 0
        self._marked_bytes = 0
        self._window_end = 0.0
        self._saw_ce = False

    def _roll_window(self, event: AckEvent) -> None:
        """Close the observation window once per RTT."""
        now = self.ctx.now
        rtt = self.ctx.srtt or self.ctx.min_rtt
        if rtt is None:
            return
        if now < self._window_end:
            return
        if self._acked_bytes > 0:
            fraction = min(1.0, self._marked_bytes / self._acked_bytes)
            self.alpha = (1 - DCTCP_GAIN) * self.alpha + DCTCP_GAIN * fraction
            if self._saw_ce:
                self.cwnd = max(
                    self.min_cwnd, int(self.cwnd * (1.0 - self.alpha / 2.0))
                )
                self.ssthresh = self.cwnd
        self._acked_bytes = 0
        self._marked_bytes = 0
        self._saw_ce = False
        self._window_end = now + rtt

    def on_ack(self, event: AckEvent) -> None:
        self.ctx.charge(self.ack_cost_units)
        self._acked_bytes += event.newly_acked_bytes
        self._marked_bytes += event.ecn_marked_bytes
        if event.ecn_marked_bytes > 0 or event.ecn_echo:
            self._saw_ce = True
        self._roll_window(event)
        # Reno-style growth between reductions (once per ACK, so
        # in_slow_start and _clamp are written out, not called).
        remainder = event.newly_acked_bytes
        if self.cwnd < self.ssthresh:
            remainder = self.slow_start(remainder)
        mss = self.ctx.mss
        if remainder > 0:
            self.cwnd += max(1, mss * remainder // max(self.cwnd, 1))
        self.cwnd = max(MIN_CWND_SEGMENTS * mss, self.cwnd)

    def on_ecn(self, event: AckEvent) -> None:
        """Per-ACK feedback is folded into the windowed estimator."""
        self.ctx.charge(self.ack_cost_units * 0.25)
        self._marked_bytes += 0  # accounting happens in on_ack
        self._saw_ce = True

    def on_congestion_event(self, event: AckEvent) -> None:
        # Actual packet loss: react like Reno (RFC 8257 §3.5).
        super().on_congestion_event(event)
