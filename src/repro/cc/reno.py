"""TCP Reno (RFC 5681).

Classic AIMD: slow start to ssthresh, then one MSS of cwnd growth per
RTT, halving on loss. The base class already implements exactly this —
Reno is the reference behaviour every other loss-based CCA perturbs —
so this subclass only pins the name and the calibrated per-ACK cost.
"""

from __future__ import annotations

from repro.cc.base import CongestionControl


class Reno(CongestionControl):
    """RFC 5681 NewReno-style AIMD congestion control."""

    name = "reno"
    #: Reno's cong_avoid is a handful of integer ops — the 1.0 reference.
    ack_cost_units = 1.10
