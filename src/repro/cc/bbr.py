"""BBR v1 (Cardwell et al. 2017), simplified but state-machine-complete.

BBR builds an explicit model of the path — bottleneck bandwidth (max
filter over delivery-rate samples) and round-trip propagation delay (min
filter over RTT samples) — and paces at ``gain * bw`` while capping
inflight at ``cwnd_gain * BDP``:

* STARTUP: 2/ln(2) gains until measured bw stops growing (3 rounds
  without +25 %),
* DRAIN: inverse gain until inflight <= BDP,
* PROBE_BW: the 8-phase gain cycle [1.25, 0.75, 1, 1, 1, 1, 1, 1],
* PROBE_RTT: cwnd of 4 segments for 200 ms when min_rtt is stale (10 s).

v1 famously ignores packet loss — :meth:`on_congestion_event` leaves the
model untouched, which is faithful and matters for the paper's Fig. 8
(BBR sustains throughput through losses instead of stalling).
"""

from __future__ import annotations

from typing import Optional

from repro.cc.base import MIN_CWND_SEGMENTS, AckEvent, CongestionControl
from repro.cc.filters import WindowedFilter
from repro.units import BITS_PER_BYTE, msec

#: RTT assumed before the first sample (also the bw-filter window floor)
FALLBACK_RTT_S = msec(1.0)

#: 2/ln(2), the STARTUP gain that doubles delivery rate each round.
STARTUP_GAIN = 2.885
#: PROBE_BW pacing-gain cycle.
PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
#: cwnd gain outside STARTUP/PROBE_RTT.
CWND_GAIN = 2.0
#: bandwidth filter window (seconds of virtual time; ~10 datacenter RTTs
#: would be far too short to ride out PROBE_RTT, so BBR uses 10 rounds —
#: we approximate with a time window refreshed from srtt).
MIN_RTT_WINDOW_S = 10.0
PROBE_RTT_DURATION_S = 0.2


class Bbr(CongestionControl):
    """BBR v1 model-based congestion control."""

    name = "bbr"
    #: rate-sample bookkeeping + two filters + state machine per ACK
    ack_cost_units = 0.85

    #: subclass knobs (BBR2-alpha overrides these)
    startup_gain = STARTUP_GAIN
    pacing_margin = 1.0
    bw_window_rounds = 10

    def __init__(self, ctx):
        super().__init__(ctx)
        self.state = "STARTUP"
        self._bw_filter = WindowedFilter(window_s=1.0)
        self._min_rtt: Optional[float] = None
        self._min_rtt_stamp = 0.0
        self._full_bw = 0.0
        self._full_bw_count = 0
        self._cycle_index = 0
        self._cycle_stamp = 0.0
        self._probe_rtt_done_stamp: Optional[float] = None
        self._round_start_time = 0.0

    # -- model updates ------------------------------------------------

    def _update_model(self, event: AckEvent, now: float) -> None:
        srtt = self.ctx.srtt or FALLBACK_RTT_S
        # Keep the bw window ~bw_window_rounds RTTs wide.
        self._bw_filter.window_s = max(self.bw_window_rounds * srtt, FALLBACK_RTT_S)
        if event.delivery_rate_bps is not None and not event.is_app_limited:
            self._bw_filter.update(now, event.delivery_rate_bps)
        if event.rtt_sample is not None and event.rtt_sample > 0:
            if (
                self._min_rtt is None
                or event.rtt_sample <= self._min_rtt
                or now - self._min_rtt_stamp > MIN_RTT_WINDOW_S
            ):
                self._min_rtt = event.rtt_sample
                self._min_rtt_stamp = now

    @property
    def bw_bps(self) -> float:
        """Modelled bottleneck bandwidth (bits/s)."""
        bw = self._bw_filter.get(self.ctx.now)
        if bw is None or bw <= 0:
            # Before any sample: derive from the initial window.
            rtt = self._min_rtt or self.ctx.min_rtt or FALLBACK_RTT_S
            return self.cwnd * BITS_PER_BYTE / rtt
        return bw

    @property
    def bdp_bytes(self) -> float:
        """Bandwidth-delay product from the model."""
        rtt = self._min_rtt or self.ctx.min_rtt or FALLBACK_RTT_S
        return self.bw_bps * rtt / BITS_PER_BYTE

    # -- state machine --------------------------------------------------

    def _check_full_pipe(self, bw: float, now: float) -> None:
        if bw >= self._full_bw * 1.25:
            self._full_bw = bw
            self._full_bw_count = 0
            return
        srtt = self.ctx.srtt or FALLBACK_RTT_S
        if now - self._round_start_time >= srtt:
            self._round_start_time = now
            self._full_bw_count += 1

    def _advance_state(self, event: AckEvent, now: float) -> Optional[float]:
        """Run the state machine on one ACK.

        Returns the model's BDP if a transition test read it, else None.
        Nothing after such a read moves the clock, ``cwnd`` or the
        filter, so :meth:`on_ack` sizes the window from the same number
        instead of asking the filter again.
        """
        bdp = None
        if self.state == "STARTUP":
            bw = self.bw_bps
            self._check_full_pipe(bw, now)
            if self._full_bw_count >= 3:
                self.state = "DRAIN"
            # bdp_bytes, from the bandwidth already in hand
            rtt = self._min_rtt or self.ctx.min_rtt or FALLBACK_RTT_S
            bdp = bw * rtt / BITS_PER_BYTE
        elif self.state == "DRAIN":
            bdp = self.bdp_bytes
            if event.flight_bytes <= bdp:
                self._enter_probe_bw()
        elif self.state == "PROBE_BW":
            rtt = self._min_rtt or FALLBACK_RTT_S
            if now - self._cycle_stamp > rtt:
                self._cycle_stamp = now
                self._cycle_index = (self._cycle_index + 1) % len(PROBE_BW_GAINS)
            if (
                self._min_rtt is not None
                and now - self._min_rtt_stamp > MIN_RTT_WINDOW_S
            ):
                self.state = "PROBE_RTT"
                self._probe_rtt_done_stamp = now + PROBE_RTT_DURATION_S
        elif self.state == "PROBE_RTT":
            assert self._probe_rtt_done_stamp is not None
            if now >= self._probe_rtt_done_stamp:
                self._min_rtt_stamp = now
                self._enter_probe_bw()
        return bdp

    def _enter_probe_bw(self) -> None:
        self.state = "PROBE_BW"
        self._cycle_index = 2  # start in a cruise phase, like the kernel
        self._cycle_stamp = self.ctx.now

    def _cwnd_gain(self) -> float:
        if self.state == "STARTUP":
            return self.startup_gain
        return CWND_GAIN

    # -- CCA interface -----------------------------------------------------

    def on_ack(self, event: AckEvent) -> None:
        ctx = self.ctx
        ctx.charge(self.ack_cost_units)
        # one clock read per ACK: nothing below advances virtual time
        now = ctx.now
        self._update_model(event, now)
        bdp = self._advance_state(event, now)
        if self.state == "PROBE_RTT":
            self.cwnd = 4 * ctx.mss
        else:
            if bdp is None:
                bdp = self.bdp_bytes
            # _cwnd_gain() and min_cwnd, written out: once per ACK
            gain = self.startup_gain if self.state == "STARTUP" else CWND_GAIN
            self.cwnd = max(MIN_CWND_SEGMENTS * ctx.mss, int(gain * bdp))

    def on_congestion_event(self, event: AckEvent) -> None:
        # BBR v1 deliberately does not reduce on loss.
        self.ctx.charge(self.ack_cost_units * 0.5)

    def on_recovery_exit(self) -> None:
        """BBR restores its model-driven cwnd rather than ssthresh."""
        self.cwnd = max(self.min_cwnd, int(self._cwnd_gain() * self.bdp_bytes))

    def on_rto(self) -> None:
        self.ctx.charge(self.ack_cost_units)
        self.cwnd = self.min_cwnd

    def pacing_rate_bps(self) -> Optional[float]:
        # asked on every send opportunity, so the gain is picked here,
        # the state a long flow spends its life in first
        state = self.state
        if state == "PROBE_BW":
            gain = PROBE_BW_GAINS[self._cycle_index]
        elif state == "STARTUP":
            gain = self.startup_gain
        elif state == "DRAIN":
            gain = 1.0 / self.startup_gain
        else:  # PROBE_RTT
            gain = 1.0
        return gain * self.bw_bps * self.pacing_margin
