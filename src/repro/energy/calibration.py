"""Calibration constants for the energy model, with provenance.

Every number here is either (a) read directly off the paper's figures и
text, or (b) fitted so a paper-reported aggregate comes out right. The
model structure is documented in DESIGN.md §2; briefly:

    P(package) = P_IDLE
               + C_load(L)                    # background compute (stress)
               + S(L) * n(t)                  # concave network-power curve
               + BETA_PKT * excess_pkt_rate   # small-MTU per-packet overhead
               + BETA_CC  * excess_cc_rate    # CCA per-ACK compute
               + BETA_RETX * retx_rate        # retransmission overhead

where ``n(t) = A_NET * t^GAMMA_NET`` is fitted through the paper's §4.1
anchors and ``t`` is the package's attributed wire throughput in Gb/s.
The "excess" rates are relative to the calibration reference (CUBIC at
MTU 9000), so by construction the model reproduces the anchors exactly
for the reference configuration.
"""

from __future__ import annotations

import math

from repro.units import gbps, usec
from typing import Sequence, Tuple

# ---------------------------------------------------------------------------
# §4.1 anchors (paper text, Figure 2): CUBIC sender, MTU 9000, per CPU package
# ---------------------------------------------------------------------------

#: idle package power, W ("each flow consumes only 21.49 Watts" while idle)
P_IDLE_W = 21.49
#: package power while its flow sends smoothly at 5 Gb/s, W
P_HALF_RATE_W = 34.23
#: package power while its flow sends at the 10 Gb/s line rate, W
P_LINE_RATE_W = 35.82

#: the testbed's line rate, Gb/s
LINE_RATE_GBPS = 10.0

# Fit n(t) = A_NET * t^GAMMA_NET through (5, P_HALF-P_IDLE), (10, P_LINE-P_IDLE).
_D5 = P_HALF_RATE_W - P_IDLE_W
_D10 = P_LINE_RATE_W - P_IDLE_W

#: concavity exponent of the network power curve (~0.17: power nearly
#: saturates by half rate, the paper's central observation)
GAMMA_NET = math.log(_D10 / _D5) / math.log(2.0)
#: scale of the network power curve, W per (Gb/s)^GAMMA_NET
A_NET = _D5 / (5.0**GAMMA_NET)


def network_power_w(throughput_gbps: float) -> float:
    """The calibrated concave curve n(t), in watts above idle."""
    if throughput_gbps <= 0:
        return 0.0
    return A_NET * throughput_gbps**GAMMA_NET


# ---------------------------------------------------------------------------
# §4.2 (Figure 4): background load tables
# ---------------------------------------------------------------------------

#: additional package power from running `stress` on a fraction of cores,
#: W, at load levels 0/25/50/75/100 % — read off Fig. 4's y-intercepts
C_LOAD_TABLE: Sequence[Tuple[float, float]] = (
    (0.0, 0.0),
    (0.25, 33.5),
    (0.50, 53.5),
    (0.75, 73.5),
    (1.00, 95.0),
)

#: attenuation of the *network* power contribution when the package is
#: already loaded — calibrated so the paper's full-speed-then-idle savings
#: come out right: 16.3 % at idle, ~1 % at 25 % load, ~0.17 % at 75 %
S_ATTENUATION_TABLE: Sequence[Tuple[float, float]] = (
    (0.0, 1.0),
    (0.25, 0.101),
    (0.50, 0.055),
    (0.75, 0.029),
    (1.00, 0.020),
)


def interpolate(table: Sequence[Tuple[float, float]], x: float) -> float:
    """Piecewise-linear interpolation with clamped ends."""
    if x <= table[0][0]:
        return table[0][1]
    if x >= table[-1][0]:
        return table[-1][1]
    for (x0, y0), (x1, y1) in zip(table, table[1:]):
        if x0 <= x <= x1:
            frac = (x - x0) / (x1 - x0)
            return y0 + frac * (y1 - y0)
    raise AssertionError("unreachable: table not sorted?")  # pragma: no cover


# ---------------------------------------------------------------------------
# reference configuration (what the anchors were measured with)
# ---------------------------------------------------------------------------

#: the anchors were measured with CUBIC at MTU 9000
REF_MTU_BYTES = 9000
#: CUBIC's relative per-ACK cost (see repro.cc.cubic)
REF_CC_UNITS_PER_ACK = 1.35
#: delayed-ACK ratio: one ACK per two data segments
REF_ACKS_PER_PACKET = 0.5
#: packet events (tx data + rx ACK) per data packet at the reference
REF_EVENTS_PER_DATA_PACKET = 1.0 + REF_ACKS_PER_PACKET


def reference_packet_rate(throughput_gbps: float) -> float:
    """Data-packet rate (pps) implied by the reference MTU at ``t`` Gb/s."""
    return gbps(throughput_gbps) / (REF_MTU_BYTES * 8.0)


# ---------------------------------------------------------------------------
# additive micro-work coefficients (Fig. 5/6 calibration)
# ---------------------------------------------------------------------------

#: W per excess packet event per second. Calibrated so MTU 1500 at its
#: ~5 Gb/s pps-limited throughput draws ~8-10 W more than MTU 9000 at the
#: same throughput, yielding the paper's 13.4-31.9 % energy savings band
#: for 1500 -> 9000 (Fig. 5).
BETA_PKT_W_PER_PPS = usec(28)

#: W per excess CC cost-unit per second. Calibrated so the Fig. 6 power
#: spread across CCAs at MTU 1500 is ~14 %.
BETA_CC_W_PER_UNIT_PER_S = usec(9)

#: W per retransmission per second (queue churn + memory accesses at the
#: sender, §4.3's explanation for the baseline's cost). Kept small: the
#: dominant energy cost of retransmissions is the *time* they waste, not
#: their instantaneous power (Fig. 6 shows lossy algorithms do not draw
#: proportionally more power).
BETA_RETX_W_PER_RPS = usec(40)

# ---------------------------------------------------------------------------
# RAPL emulation (§3: Intel RAPL interface, Sandy-Bridge-era unit)
# ---------------------------------------------------------------------------

#: energy status unit: 2^-16 J ~= 15.26 uJ (MSR_RAPL_POWER_UNIT default)
RAPL_ENERGY_UNIT_J = 2.0**-16
#: the energy status register is 32 bits wide and wraps
RAPL_COUNTER_BITS = 32

# ---------------------------------------------------------------------------
# §4.2 cost extrapolation
# ---------------------------------------------------------------------------

#: "The energy to run a typical data center rack is on the order of
#: $10k/year" [51]
RACK_COST_USD_PER_YEAR = 10_000.0
#: "around 100k racks in a typical data center" [38]
RACKS_PER_DATACENTER = 100_000
