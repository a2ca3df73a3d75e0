"""Packet model.

One :class:`Packet` models one on-the-wire frame: a TCP data segment or a
(pure) ACK. Sizes include protocol headers so link serialization time and
queue occupancy are computed on wire bytes, the quantity that matters for
the bottleneck.

ECN is modelled as the standard two-bit dance collapsed to booleans:
``ecn_capable`` (ECT) set by the sender, ``ecn_marked`` (CE) set by a
marking queue, and ``ecn_echo`` (ECE) reflected on the ACK — all that
DCTCP needs.
"""

from __future__ import annotations

from typing import Optional, Tuple

#: Bytes of IP + TCP header on every segment (no options modelled beyond
#: a fixed allowance for timestamps/SACK, as in common MSS arithmetic).
TCP_IP_HEADER_BYTES = 40

#: Ethernet framing overhead (header + FCS + preamble + IPG) charged on
#: the wire. Kept separate from the IP packet size because MTU bounds the
#: IP packet, not the frame.
ETHERNET_OVERHEAD_BYTES = 38

_new = object.__new__


class Packet:
    """A single simulated frame.

    One instance is allocated per simulated segment and per ACK, so the
    class defines ``__slots__`` instead of paying for a ``__dict__``.

    Attributes
    ----------
    flow_id:
        Identifies the TCP connection this packet belongs to; used for
        demux at the receiving host and per-flow accounting.
    src, dst:
        Host names, used by the switch's forwarding table.
    seq:
        For data segments, the byte offset of the first payload byte.
    payload_bytes:
        TCP payload length (0 for a pure ACK). ``seq`` and
        ``payload_bytes`` are fixed at construction: ``end_seq``,
        ``size_bytes`` and ``wire_bytes`` are derived from them once.
    end_seq:
        One past the last payload byte (== ``seq`` for pure ACKs).
    size_bytes:
        IP packet size: payload plus TCP/IP headers.
    wire_bytes:
        Bytes occupied on the wire including Ethernet framing.
    is_ack / ack_seq:
        ACK flag and cumulative acknowledgement (next expected byte).
    sacks:
        Selectively-acknowledged byte ranges carried on an ACK, as
        ``(start, end)`` half-open intervals.
    sent_time:
        Virtual time the segment was handed to the NIC; echoed on the ACK
        (``echo_time``) so the sender can take RTT samples even for
        retransmitted data (Karn's algorithm is still honoured by the
        ``retransmitted`` flag).
    """

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "seq",
        "payload_bytes",
        "end_seq",
        "size_bytes",
        "wire_bytes",
        "is_ack",
        "ack_seq",
        "sacks",
        "ecn_capable",
        "ecn_marked",
        "ecn_echo",
        "ecn_marked_bytes",
        "retransmitted",
        "rwnd_bytes",
        "int_qlen_bytes",
        "int_tx_bytes",
        "int_timestamp",
        "int_link_rate_bps",
        "priority",
        "sent_time",
        "echo_time",
    )

    def __init__(
        self,
        flow_id: int,
        src: str,
        dst: str,
        seq: int = 0,
        payload_bytes: int = 0,
        is_ack: bool = False,
        ack_seq: int = 0,
        sacks: Tuple[Tuple[int, int], ...] = (),
        ecn_capable: bool = False,
        ecn_marked: bool = False,
        ecn_echo: bool = False,
        # on ACKs: how many of the newly acknowledged bytes were CE-marked
        # (DCTCP's fraction-of-marked-bytes feedback, collapsed to one field)
        ecn_marked_bytes: int = 0,
        retransmitted: bool = False,
        # receive window advertised on ACKs (None = field not carried)
        rwnd_bytes: Optional[int] = None,
        # in-band network telemetry (INT), stamped by the bottleneck egress
        # when enabled and echoed on ACKs — what HPCC consumes. One record
        # suffices on a single-bottleneck path.
        int_qlen_bytes: Optional[int] = None,
        int_tx_bytes: Optional[float] = None,
        int_timestamp: Optional[float] = None,
        int_link_rate_bps: Optional[float] = None,
        # scheduling priority for pFabric-style switches (lower = sooner);
        # senders set it to the flow's remaining bytes to approximate SRPT
        priority: Optional[int] = None,
        sent_time: float = 0.0,
        echo_time: Optional[float] = None,
    ) -> None:
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.seq = seq
        self.payload_bytes = payload_bytes
        self.end_seq = seq + payload_bytes
        # every queue, link and counter on the path reads these, several
        # times per hop
        self.size_bytes = payload_bytes + TCP_IP_HEADER_BYTES
        self.wire_bytes = self.size_bytes + ETHERNET_OVERHEAD_BYTES
        self.is_ack = is_ack
        self.ack_seq = ack_seq
        self.sacks = sacks
        self.ecn_capable = ecn_capable
        self.ecn_marked = ecn_marked
        self.ecn_echo = ecn_echo
        self.ecn_marked_bytes = ecn_marked_bytes
        self.retransmitted = retransmitted
        self.rwnd_bytes = rwnd_bytes
        self.int_qlen_bytes = int_qlen_bytes
        self.int_tx_bytes = int_tx_bytes
        self.int_timestamp = int_timestamp
        self.int_link_rate_bps = int_link_rate_bps
        self.priority = priority
        self.sent_time = sent_time
        self.echo_time = echo_time

    def __repr__(self) -> str:
        """Short human-readable form for test failures."""
        if self.is_ack:
            kind = f"ACK {self.ack_seq}"
            if self.ecn_echo:
                kind += " ECE"
            if self.sacks:
                kind += f" SACK{list(self.sacks)}"
        else:
            kind = f"DATA [{self.seq},{self.end_seq})"
            if self.retransmitted:
                kind += " RETX"
            if self.ecn_marked:
                kind += " CE"
        return f"<{self.src}->{self.dst} flow={self.flow_id} {kind}>"


def data_packet(
    flow_id: int, src: str, dst: str, seq: int, payload_bytes: int,
    ecn_capable: bool, retransmitted: bool, priority: Optional[int],
) -> Packet:
    """``Packet(flow_id, src, dst, seq, payload_bytes, ecn_capable=...,
    retransmitted=..., priority=...)`` without binding the other 13."""
    packet = _new(Packet)
    packet.flow_id, packet.src, packet.dst = flow_id, src, dst
    packet.seq, packet.payload_bytes = seq, payload_bytes
    packet.end_seq = seq + payload_bytes
    packet.size_bytes = size = payload_bytes + TCP_IP_HEADER_BYTES
    packet.wire_bytes = size + ETHERNET_OVERHEAD_BYTES
    packet.is_ack = packet.ecn_marked = packet.ecn_echo = False
    packet.ack_seq = packet.ecn_marked_bytes = 0
    packet.sacks = ()
    packet.ecn_capable, packet.retransmitted = ecn_capable, retransmitted
    packet.rwnd_bytes = packet.int_qlen_bytes = packet.int_tx_bytes = None
    packet.int_timestamp = packet.int_link_rate_bps = packet.echo_time = None
    packet.priority = priority
    packet.sent_time = 0.0
    return packet


def ack_packet(
    flow_id: int, src: str, dst: str, ack_seq: int,
    sacks: Tuple[Tuple[int, int], ...], ecn_echo: bool, ecn_marked_bytes: int,
    echo_time: Optional[float], rwnd_bytes: Optional[int],
) -> Packet:
    """``Packet(flow_id, src, dst, is_ack=True, ack_seq=..., sacks=...,
    ecn_echo=..., ecn_marked_bytes=..., echo_time=..., rwnd_bytes=...)``
    without binding the other 11."""
    packet = _new(Packet)
    packet.flow_id, packet.src, packet.dst = flow_id, src, dst
    packet.seq = packet.payload_bytes = packet.end_seq = 0
    packet.size_bytes = TCP_IP_HEADER_BYTES
    packet.wire_bytes = TCP_IP_HEADER_BYTES + ETHERNET_OVERHEAD_BYTES
    packet.is_ack = True
    packet.ack_seq, packet.sacks = ack_seq, sacks
    packet.ecn_capable = packet.ecn_marked = packet.retransmitted = False
    packet.ecn_echo, packet.ecn_marked_bytes = ecn_echo, ecn_marked_bytes
    packet.rwnd_bytes = rwnd_bytes
    packet.int_qlen_bytes = packet.int_tx_bytes = packet.priority = None
    packet.int_timestamp = packet.int_link_rate_bps = None
    packet.sent_time = 0.0
    packet.echo_time = echo_time
    return packet


def mss_for_mtu(mtu_bytes: int) -> int:
    """Maximum segment size for a given MTU (MTU minus TCP/IP headers)."""
    if mtu_bytes <= TCP_IP_HEADER_BYTES:
        raise ValueError(
            f"MTU {mtu_bytes} too small for {TCP_IP_HEADER_BYTES}B of headers"
        )
    return mtu_bytes - TCP_IP_HEADER_BYTES
