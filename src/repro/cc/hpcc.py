"""HPCC (Li et al., SIGCOMM 2019) — INT-driven high-precision CC.

Named in the paper's §5 as a production algorithm worth evaluating. HPCC
uses in-band network telemetry stamped by the switches (queue length,
cumulative transmitted bytes, timestamp, link rate) to compute each
link's *utilization*

    U = qlen / (B * T)  +  txRate / B

where B is the link bandwidth, T the base RTT and txRate is estimated
from consecutive INT samples. The window tracks a reference ``w_c``
scaled by how far U sits from the target eta (0.95):

    W = w_c / (U / eta) + w_ai

with ``w_c`` resynchronized to W once per RTT. Requires INT on the
bottleneck (``TestbedConfig(int_telemetry=True)``); without telemetry
it holds its window, making the dependency loud rather than silently
degrading.
"""

from __future__ import annotations

from typing import Optional

from repro.cc.base import MIN_CWND_SEGMENTS, AckEvent, CongestionControl
from repro.units import BITS_PER_BYTE, usec

#: target utilization eta
HPCC_ETA = 0.95
#: additive increase, segments (keeps flows from starving at U ~ eta)
HPCC_WAI_SEGMENTS = 0.5
#: base RTT assumed by the utilization formula (the testbed's)
HPCC_BASE_RTT_S = usec(40)
#: bound on the per-ACK multiplicative adjustment
HPCC_MAX_STEP = 4.0


class Hpcc(CongestionControl):
    """HPCC: high-precision CC from in-band telemetry."""

    name = "hpcc"
    #: per-ACK INT parsing + utilization arithmetic (HPCC's host cost is
    #: higher than AIMD but the precision removes retransmission work)
    ack_cost_units = 1.28

    def __init__(self, ctx):
        super().__init__(ctx)
        self.w_c = float(self.cwnd)
        self._last_sync: Optional[float] = None
        self._prev_tx_bytes: Optional[float] = None
        self._prev_ts: Optional[float] = None

    # -- telemetry ----------------------------------------------------

    def _utilization(self, event: AckEvent) -> Optional[float]:
        """U for the bottleneck from this ACK's echoed INT record."""
        if (
            event.int_qlen_bytes is None
            or event.int_tx_bytes is None
            or event.int_timestamp is None
            or event.int_link_rate_bps is None
        ):
            return None
        bandwidth = event.int_link_rate_bps
        base_rtt = self.ctx.min_rtt or HPCC_BASE_RTT_S
        u_queue = (
            event.int_qlen_bytes * BITS_PER_BYTE / (bandwidth * base_rtt)
        )
        u_rate = 0.0
        if self._prev_tx_bytes is not None and self._prev_ts is not None:
            dt = event.int_timestamp - self._prev_ts
            if dt > 0:
                tx_rate = (
                    (event.int_tx_bytes - self._prev_tx_bytes)
                    * BITS_PER_BYTE
                    / dt
                )
                u_rate = tx_rate / bandwidth
        self._prev_tx_bytes = event.int_tx_bytes
        self._prev_ts = event.int_timestamp
        return u_queue + u_rate

    # -- CCA interface ---------------------------------------------------

    def on_ack(self, event: AckEvent) -> None:
        self.ctx.charge(self.ack_cost_units)
        utilization = self._utilization(event)
        if utilization is None:
            return  # no INT on this path: hold the window, loudly simple
        ratio = max(utilization / HPCC_ETA, 1.0 / HPCC_MAX_STEP)
        ratio = min(ratio, HPCC_MAX_STEP)
        mss = self.ctx.mss
        target = self.w_c / ratio + HPCC_WAI_SEGMENTS * mss
        self.cwnd = max(MIN_CWND_SEGMENTS * mss, int(target))
        # Resynchronize the reference window once per RTT.
        rtt = self.ctx.srtt or self.ctx.min_rtt or HPCC_BASE_RTT_S
        if self._last_sync is None or self.ctx.now - self._last_sync >= rtt:
            self._last_sync = self.ctx.now
            self.w_c = float(self.cwnd)

    def on_congestion_event(self, event: AckEvent) -> None:
        self.ctx.charge(self.ack_cost_units)
        self.w_c = max(float(self.min_cwnd), self.w_c / 2.0)
        self.cwnd = max(self.min_cwnd, int(self.w_c))

    def pacing_rate_bps(self) -> Optional[float]:
        """Pace at W / base-RTT, per the HPCC paper."""
        rtt = self.ctx.min_rtt or HPCC_BASE_RTT_S
        return self.cwnd * BITS_PER_BYTE / rtt
