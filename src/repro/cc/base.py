"""Congestion-control algorithm (CCA) plug-in interface.

Every CCA is an object owned by one :class:`~repro.tcp.sender.TcpSender`.
The sender translates wire events into the calls below; the CCA's only
job is to maintain ``cwnd`` (bytes) and, optionally, a pacing rate.

The interface mirrors the Linux ``tcp_congestion_ops`` surface at the
granularity this reproduction needs:

* :meth:`on_ack`          — cumulative ACK advanced (cong_avoid)
* :meth:`on_dupack`       — duplicate ACK seen (not yet a loss)
* :meth:`on_congestion_event` — loss inferred, entering fast recovery (ssthresh)
* :meth:`on_ecn`          — ECE feedback (DCTCP and BBR2 react)
* :meth:`on_rto`          — retransmission timeout fired
* :meth:`on_recovery_exit`— leaving fast recovery (cwnd = ssthresh, PRR-lite)
* :meth:`pacing_rate_bps` — asked once per send opportunity of a CCA
  whose class defines it; a pure window-based algorithm inherits the
  base class's (None) and is never asked

``cost_units`` given to :meth:`~CcContext.charge` are *relative* CPU
work per operation; the energy layer's cost model converts them to
cycles. Algorithms that do more per-ACK arithmetic (CUBIC's cube root,
BBR's bandwidth filters) charge more, which is one of the two mechanisms
(with protocol dynamics) behind the paper's Fig. 5/6 spread.
"""

from __future__ import annotations

import math
from typing import ClassVar, Optional, Protocol


class AckEvent:
    """Everything a CCA may want to know about one incoming ACK.

    One is allocated per ACK processed, hence ``__slots__``.
    """

    __slots__ = (
        "newly_acked_bytes",
        "cumulative_ack",
        "rtt_sample",
        "flight_bytes",
        "in_recovery",
        "ecn_echo",
        "ecn_marked_bytes",
        "delivery_rate_bps",
        "is_app_limited",
        "int_qlen_bytes",
        "int_tx_bytes",
        "int_timestamp",
        "int_link_rate_bps",
    )

    def __init__(
        self,
        newly_acked_bytes: int,
        cumulative_ack: int,
        rtt_sample: Optional[float],
        flight_bytes: int,
        in_recovery: bool,
        ecn_echo: bool,
        ecn_marked_bytes: int,
        delivery_rate_bps: Optional[float],
        is_app_limited: bool,
        # echoed in-band telemetry from the bottleneck (HPCC-style);
        # None unless the path stamps INT
        int_qlen_bytes: Optional[int] = None,
        int_tx_bytes: Optional[float] = None,
        int_timestamp: Optional[float] = None,
        int_link_rate_bps: Optional[float] = None,
    ) -> None:
        self.newly_acked_bytes = newly_acked_bytes
        self.cumulative_ack = cumulative_ack
        self.rtt_sample = rtt_sample
        self.flight_bytes = flight_bytes
        self.in_recovery = in_recovery
        self.ecn_echo = ecn_echo
        self.ecn_marked_bytes = ecn_marked_bytes
        self.delivery_rate_bps = delivery_rate_bps
        self.is_app_limited = is_app_limited
        self.int_qlen_bytes = int_qlen_bytes
        self.int_tx_bytes = int_tx_bytes
        self.int_timestamp = int_timestamp
        self.int_link_rate_bps = int_link_rate_bps


class CcContext(Protocol):
    """What the owning sender exposes to its CCA."""

    @property
    def mss(self) -> int:
        """Maximum segment size in bytes."""
        ...  # pragma: no cover

    @property
    def now(self) -> float:
        """Current virtual time."""
        ...  # pragma: no cover

    @property
    def srtt(self) -> Optional[float]:
        """Smoothed RTT, if sampled yet."""
        ...  # pragma: no cover

    @property
    def min_rtt(self) -> Optional[float]:
        """Minimum RTT observed."""
        ...  # pragma: no cover

    def charge(self, cost_units: float) -> None:
        """Account CPU work performed by the CCA."""
        ...  # pragma: no cover


#: cwnd can never fall below this many segments.
MIN_CWND_SEGMENTS = 2

#: Initial window per RFC 6928.
INITIAL_WINDOW_SEGMENTS = 10

#: Initial ssthresh, segments. Linux caches ssthresh per destination in
#: tcp_metrics, so repeated runs against the same receiver (exactly what
#: the paper's 10-repetition methodology does) start slow start with a
#: sane exit point instead of probing to catastrophe. 160 full-size
#: 9000-byte segments ~= 1.4 MB, comfortably under the testbed's
#: bottleneck headroom.
INITIAL_SSTHRESH_SEGMENTS = 160


class CongestionControl:
    """Base class: Reno-style slow start plus hooks.

    Subclasses override the reaction methods. The base class implements
    the slow-start half of every loss-based algorithm because nearly all
    of them share it (CUBIC, Scalable, HighSpeed, Westwood, DCTCP all
    slow-start like Reno below ``ssthresh``).
    """

    #: registry key and display name, e.g. "cubic"
    name: ClassVar[str] = "base"
    #: relative CPU work charged per processed ACK (calibrated; see
    #: repro.energy.cost_model for provenance)
    ack_cost_units: ClassVar[float] = 1.0
    #: whether the stack's TCP-Small-Queues backpressure applies; the
    #: paper's custom constant-cwnd module bypasses it (that burstiness
    #: is its defining behaviour, §4.3)
    respects_tsq: ClassVar[bool] = True
    #: after a local qdisc drop, resume sending once the queue drains
    #: below this fraction of its capacity. Well-behaved stacks wait for
    #: real headroom; the baseline hammers the moment a slot opens.
    qdisc_retry_watermark: ClassVar[float] = 0.9

    def __init__(self, ctx: CcContext):
        self.ctx = ctx
        self.cwnd = INITIAL_WINDOW_SEGMENTS * ctx.mss
        self.ssthresh = float(INITIAL_SSTHRESH_SEGMENTS * ctx.mss)

    # -- helpers ----------------------------------------------------------

    @property
    def min_cwnd(self) -> int:
        """Floor for the congestion window in bytes."""
        return MIN_CWND_SEGMENTS * self.ctx.mss

    @property
    def in_slow_start(self) -> bool:
        """Whether cwnd is still below ssthresh."""
        return self.cwnd < self.ssthresh

    def _clamp(self) -> None:
        self.cwnd = max(self.min_cwnd, self.cwnd)

    def slow_start(self, acked_bytes: int) -> int:
        """Grow cwnd by the ACKed bytes (classic exponential growth).

        Returns bytes of ACK not consumed by slow start (when the ACK
        straddles ssthresh), which congestion avoidance should handle.
        """
        room = self.ssthresh - self.cwnd
        if room <= 0:
            return acked_bytes
        used = acked_bytes if room > acked_bytes else min(acked_bytes, int(room))
        self.cwnd += used
        return acked_bytes - used

    # -- events (override in subclasses) ----------------------------------

    def on_ack(self, event: AckEvent) -> None:
        """Cumulative ACK advanced. Default: Reno additive increase.

        Once per ACK, so ``in_slow_start``, ``min_cwnd`` and ``_clamp``
        are written out here instead of called.
        """
        ctx = self.ctx
        ctx.charge(self.ack_cost_units)
        remainder = event.newly_acked_bytes
        if self.cwnd < self.ssthresh:
            remainder = self.slow_start(remainder)
        mss = ctx.mss
        if remainder > 0:
            # AIMD: one MSS per RTT => mss*mss/cwnd per ACKed MSS.
            self.cwnd += max(1, mss * remainder // max(self.cwnd, 1))
        self.cwnd = max(MIN_CWND_SEGMENTS * mss, self.cwnd)

    def on_dupack(self, event: AckEvent) -> None:
        """Duplicate ACK observed (before loss is inferred)."""
        self.ctx.charge(self.ack_cost_units * 0.5)

    def on_congestion_event(self, event: AckEvent) -> None:
        """Loss inferred; cut the window. Default: Reno halving."""
        self.ctx.charge(self.ack_cost_units)
        self.ssthresh = max(self.min_cwnd, self.cwnd / 2.0)
        self.cwnd = self.ssthresh
        self._clamp()

    def on_ecn(self, event: AckEvent) -> None:
        """ECE feedback arrived. Default: treat like loss, at most 1/RTT.

        Subclasses with real ECN behaviour (DCTCP) override this; loss-
        based algorithms in the kernel reduce once per window, which the
        sender enforces by only delivering one on_ecn per recovery epoch.
        """
        self.on_congestion_event(event)

    def on_rto(self) -> None:
        """Retransmission timeout: collapse to the minimum window."""
        self.ctx.charge(self.ack_cost_units)
        self.ssthresh = max(self.min_cwnd, self.cwnd / 2.0)
        self.cwnd = self.min_cwnd
        self._clamp()

    def on_recovery_exit(self) -> None:
        """Fast recovery finished; complete the window reduction."""
        self.cwnd = max(self.min_cwnd, self.ssthresh)
        self._clamp()

    def pacing_rate_bps(self) -> Optional[float]:
        """Pacing rate, or None for pure ACK-clocked window sending.

        A CCA that paces overrides this *in its class*: the sender looks
        once, at construction, whether it did, and does not ask one that
        did not. An override may still answer None ("not now").
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} cwnd={self.cwnd}B "
            f"ssthresh={self.ssthresh if math.isfinite(self.ssthresh) else 'inf'}>"
        )
