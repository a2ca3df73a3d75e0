"""Unit helpers and constants used across the library.

All simulator-internal quantities use SI base units:

* time        — seconds (float)
* data size   — bytes (int) unless a name says otherwise
* data rate   — bits per second (float)
* energy      — joules (float); the RAPL emulation counts in its energy unit
* power       — watts (float)

The helpers in this module exist so call sites read like the paper
("10 Gb/s", "50 GB", "9000-byte MTU") instead of raw exponents.
"""

from __future__ import annotations

# --- data rate ------------------------------------------------------------

BITS_PER_BYTE = 8

MBPS = 1e6
GBPS = 1e9


def gbps(value: float) -> float:
    """Convert gigabits/second to bits/second."""
    return value * GBPS


def mbps(value: float) -> float:
    """Convert megabits/second to bits/second."""
    return value * MBPS


def to_gbps(bits_per_second: float) -> float:
    """Convert bits/second to gigabits/second."""
    return bits_per_second / GBPS


# --- data size ------------------------------------------------------------

MB = 1000**2
GB = 1000**3


def gigabytes(value: float) -> int:
    """Convert gigabytes (decimal, like iperf3 -n 50G) to bytes."""
    return int(value * GB)


def megabytes(value: float) -> int:
    """Convert megabytes to bytes."""
    return int(value * MB)


def gigabits(value: float) -> int:
    """Convert gigabits (the paper's '10 Gbit of data') to bytes."""
    return int(value * GB / BITS_PER_BYTE)


# --- time -----------------------------------------------------------------


def usec(value: float) -> float:
    """Convert microseconds to seconds.

    Implemented as division by 1e6 (exactly representable) so
    ``usec(40)`` rounds identically to the literal ``40e-6``.
    """
    return value / 1e6


def msec(value: float) -> float:
    """Convert milliseconds to seconds.

    Division by 1e3 for the same correct-rounding reason as :func:`usec`.
    """
    return value / 1e3


def to_msec(seconds: float) -> float:
    """Convert seconds to milliseconds (table/figure display unit)."""
    return seconds * 1e3


# --- energy ---------------------------------------------------------------

KILOJOULE = 1e3


def joules_to_kj(value: float) -> float:
    """Convert joules to kilojoules (the unit of the paper's Fig. 5/7/8)."""
    return value / KILOJOULE


# --- reporting scales -----------------------------------------------------

#: not an SI unit — the scale for "$M/year"-style report lines
MILLION = 1e6


def transmission_time(size_bytes: int, rate_bps: float) -> float:
    """Serialization delay of ``size_bytes`` on a ``rate_bps`` link, seconds."""
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    return size_bytes * BITS_PER_BYTE / rate_bps
