"""CUBIC (RFC 8312), the Linux default.

Window growth is a cubic function of time since the last congestion
event, anchored at the pre-loss window ``w_max``:

    W(t) = C (t - K)^3 + w_max,   K = cbrt(w_max * beta / C)

with the standard constants C = 0.4 (segments/s^3) and beta = 0.7. The
TCP-friendly region ensures CUBIC never does worse than an equivalent
AIMD flow at low bandwidth-delay products.
"""

from __future__ import annotations

from repro.cc.base import MIN_CWND_SEGMENTS, AckEvent, CongestionControl

#: RFC 8312 constants.
CUBIC_C = 0.4
CUBIC_BETA = 0.7

#: HyStart delay-increase detection: leave slow start once the RTT has
#: grown by this factor over the propagation floor (Linux's HyStart uses
#: an absolute 4-16 ms eta, which never fires on a 40 us datacenter
#: fabric; a relative threshold captures the same intent at any scale).
HYSTART_RTT_GROWTH = 2.0
#: HyStart only engages above this window (segments), per the kernel.
HYSTART_LOW_WINDOW = 16


class Cubic(CongestionControl):
    """RFC 8312 CUBIC congestion control."""

    name = "cubic"
    #: cube-root arithmetic + epoch bookkeeping per ACK — measurably more
    #: work than Reno's increment (Linux uses a table-driven cbrt).
    ack_cost_units = 1.30

    def __init__(self, ctx):
        super().__init__(ctx)
        self._w_max = 0.0  # segments
        self._epoch_start: float = -1.0
        self._k = 0.0
        self._tcp_cwnd = 0.0  # friendly-region estimate, segments

    def _reset_epoch(self) -> None:
        self._epoch_start = -1.0

    def _hystart(self, event: AckEvent) -> None:
        """Delay-increase slow-start exit (the kernel's HyStart)."""
        min_rtt = self.ctx.min_rtt
        if (
            event.rtt_sample is not None
            and min_rtt is not None
            and self.cwnd >= HYSTART_LOW_WINDOW * self.ctx.mss
            and event.rtt_sample >= min_rtt * HYSTART_RTT_GROWTH
        ):
            self.ssthresh = self.cwnd

    def on_ack(self, event: AckEvent) -> None:
        # once per ACK: in_slow_start, min_cwnd and _clamp are written
        # out here instead of called
        ctx = self.ctx
        ctx.charge(self.ack_cost_units)
        remainder = event.newly_acked_bytes
        mss = ctx.mss
        if self.cwnd < self.ssthresh:
            self._hystart(event)
        if self.cwnd < self.ssthresh:
            remainder = self.slow_start(remainder)
            if remainder <= 0:
                self.cwnd = max(MIN_CWND_SEGMENTS * mss, self.cwnd)
                return
        cwnd_seg = self.cwnd / mss
        now = ctx.now
        if self._epoch_start < 0:
            self._epoch_start = now
            if cwnd_seg < self._w_max:
                self._k = ((self._w_max - cwnd_seg) / CUBIC_C) ** (1.0 / 3.0)
            else:
                self._k = 0.0
                self._w_max = cwnd_seg
            self._tcp_cwnd = cwnd_seg
        t = now - self._epoch_start
        target = CUBIC_C * (t - self._k) ** 3 + self._w_max

        # TCP-friendly region (average Reno window over the epoch).
        rtt = ctx.srtt or ctx.min_rtt or 0.0
        if rtt > 0:
            self._tcp_cwnd += (
                3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA)
                * (remainder / mss) / cwnd_seg
            )
        target = max(target, self._tcp_cwnd)

        if target > cwnd_seg:
            # Spread the growth over the next RTT like the kernel does:
            # grow by (target - cwnd)/cwnd per ACKed cwnd of data.
            increment = (target - cwnd_seg) / cwnd_seg
            self.cwnd += max(1, int(increment * (remainder / mss) * mss))
        else:
            # In the concave plateau, grow very slowly (1 seg / 100 ACKs).
            self.cwnd += max(1, mss // 100)
        self.cwnd = max(MIN_CWND_SEGMENTS * mss, self.cwnd)

    def on_congestion_event(self, event: AckEvent) -> None:
        self.ctx.charge(self.ack_cost_units)
        cwnd_seg = self.cwnd / self.ctx.mss
        # Fast convergence (RFC 8312 §4.6).
        if cwnd_seg < self._w_max:
            self._w_max = cwnd_seg * (1.0 + CUBIC_BETA) / 2.0
        else:
            self._w_max = cwnd_seg
        self.ssthresh = max(self.min_cwnd, self.cwnd * CUBIC_BETA)
        self.cwnd = self.ssthresh
        self._reset_epoch()
        self._clamp()

    def on_rto(self) -> None:
        super().on_rto()
        self._w_max = max(self._w_max, self.cwnd / self.ctx.mss)
        self._reset_epoch()
