"""Round-trip-time estimation and retransmission timeout (RFC 6298).

Implements the standard SRTT/RTTVAR exponentially-weighted estimator with
the RFC 6298 constants, plus minimum-RTT tracking (needed by Vegas, BBR
and DCTCP's gain arithmetic) and exponential RTO backoff.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TcpStateError
from repro.units import msec

#: RFC 6298 smoothing constants.
ALPHA = 1.0 / 8.0
BETA = 1.0 / 4.0
K = 4.0

#: Datacenter-friendly clamp. The RFC minimum of 1 s would make a 40 µs
#: RTT fabric unusable; Linux uses 200 ms but datacenter stacks configure
#: far lower.
DEFAULT_MIN_RTO = msec(1.0)
DEFAULT_MAX_RTO = 60.0
DEFAULT_INITIAL_RTO = 0.1


class RttEstimator:
    """SRTT/RTTVAR/RTO state for one connection."""

    #: RTO floor, ceiling and value before the first sample, seconds
    min_rto = DEFAULT_MIN_RTO
    max_rto = DEFAULT_MAX_RTO
    initial_rto = DEFAULT_INITIAL_RTO

    def __init__(self) -> None:
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.min_rtt: Optional[float] = None
        self._backoff = 1
        #: current retransmission timeout, seconds (with backoff
        #: applied). A plain attribute because the sender reads it on
        #: every ACK; only the estimator writes it, wherever ``srtt``,
        #: ``rttvar`` or the backoff change.
        self.rto = min(max(self.min_rto, self.initial_rto), self.max_rto)

    def on_sample(self, rtt: float) -> None:
        """Fold one RTT measurement into the estimator."""
        if rtt <= 0:
            raise TcpStateError(f"RTT sample must be > 0, got {rtt}")
        if self.min_rtt is None or rtt < self.min_rtt:
            self.min_rtt = rtt
        if self.srtt is None:
            # First measurement (RFC 6298 §2.2).
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            assert self.rttvar is not None
            self.rttvar = (1 - BETA) * self.rttvar + BETA * abs(self.srtt - rtt)
            self.srtt = (1 - ALPHA) * self.srtt + ALPHA * rtt
        self._backoff = 1  # a valid sample clears backoff
        # RFC 6298 §2.3: SRTT + K * RTTVAR, clamped; no backoff to apply
        self.rto = min(
            max(self.min_rto, self.srtt + K * self.rttvar), self.max_rto
        )

    def backoff(self) -> None:
        """Double the RTO after a retransmission timeout (Karn/Partridge)."""
        self._backoff = min(self._backoff * 2, 64)
        if self.srtt is None or self.rttvar is None:
            base = self.initial_rto
        else:
            base = self.srtt + K * self.rttvar
        self.rto = min(max(self.min_rto, base) * self._backoff, self.max_rto)
