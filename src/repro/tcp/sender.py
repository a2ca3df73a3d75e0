"""TCP sender: window management, loss recovery, retransmission, pacing.

This is the engine room of the reproduction. One :class:`TcpSender`
models the sending half of a Linux TCP connection at the fidelity the
paper's experiments exercise:

* cwnd-limited, ACK-clocked transmission (or paced, if the CCA's class
  defines ``pacing_rate_bps``: then it is asked once per send
  opportunity, otherwise never),
* RTT sampling from echoed send timestamps (Karn-safe),
* duplicate-ACK and SACK-based fast retransmit with NewReno-style
  partial-ACK retransmission during recovery,
* RTO with exponential backoff and go-back-N style recovery of the
  un-SACKed outstanding data,
* ECN (ECE) handling with at-most-once-per-window reduction for classic
  CCAs, full feedback passthrough for DCTCP,
* delivery-rate samples per ACK (what BBR's bandwidth filter consumes).

Energy coupling happens exclusively through
:meth:`~repro.net.host.Host.notify_cc_op` and the host send/receive
events — the sender never talks to the energy model directly.

The per-segment and per-ACK paths are written for what a call costs, not
only for how many there are: ``SegmentInfo``, ``Packet`` and ``AckEvent``
are built positionally (a keyword costs more than the store it names),
and a question asked per packet whose answer rarely changes is a field
(``_paces``, ``RttEstimator.rto``) or an expression written out where it
is asked (the window test for new data) with the method it copies kept
for the paths that run once per loss. ``tests/tcp/test_call_shape.py``
holds each copy to its original.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.errors import TcpStateError
from repro.net.host import Host
from repro.net.packet import Packet, mss_for_mtu
from repro.sim.engine import Event, Simulator
from repro.sim.probe import (
    CWND_CHANNEL,
    RETRANSMITS_CHANNEL,
    SRTT_CHANNEL,
    SSTHRESH_CHANNEL,
)
from repro.sim.timer import Timer
from repro.sim.trace import CounterSet
from repro.cc.base import AckEvent, CongestionControl
from repro.tcp.ranges import RangeSet
from repro.units import msec
from repro.tcp.rtt import RttEstimator
from repro.units import BITS_PER_BYTE

CcaFactory = Callable[["TcpSender"], CongestionControl]
CompletionCallback = Callable[[float], None]

#: Fast retransmit threshold (RFC 5681).
DUPACK_THRESHOLD = 3


class SegmentInfo:
    """Sender-side bookkeeping for one outstanding data segment.

    One is allocated per transmitted segment, hence ``__slots__``.
    """

    __slots__ = (
        "seq",
        "length",
        "end_seq",
        "first_sent_time",
        "sent_time",
        "delivered_at_send",
        "retransmitted",
        "sacked",
        "in_flight",
        "app_limited",
    )

    def __init__(
        self,
        seq: int,
        length: int,
        first_sent_time: float,
        sent_time: float,
        delivered_at_send: int,
        retransmitted: bool = False,
        sacked: bool = False,
        in_flight: bool = False,
        app_limited: bool = False,
    ) -> None:
        self.seq = seq
        self.length = length
        #: one past the segment's last byte; seq and length never change
        self.end_seq = seq + length
        self.first_sent_time = first_sent_time
        self.sent_time = sent_time
        self.delivered_at_send = delivered_at_send
        self.retransmitted = retransmitted
        self.sacked = sacked
        self.in_flight = in_flight
        self.app_limited = app_limited


class TcpSender:
    """Sending endpoint of one simulated TCP connection.

    The sender also *is* the :class:`~repro.cc.base.CcContext` handed to
    its congestion controller.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: int,
        dst: str,
        cca_factory: CcaFactory,
        total_bytes: Optional[int] = None,
        mss: Optional[int] = None,
        ecn_capable: bool = False,
        min_rto: float = msec(1.0),
        tsq_limit_bytes: int = 256 * 1024,
    ):
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.dst = dst
        #: maximum segment size in bytes (CcContext)
        self.mss = mss if mss is not None else mss_for_mtu(host.mtu_bytes)
        if self.mss <= 0:
            raise TcpStateError(f"MSS must be positive, got {self.mss}")
        self.total_bytes = total_bytes
        self.ecn_capable = ecn_capable
        if tsq_limit_bytes <= 0:
            # an empty qdisc would already be at the limit: never a send
            raise TcpStateError(
                f"TSQ limit must be positive, got {tsq_limit_bytes}"
            )
        #: TCP-Small-Queues-style cap on this flow's bytes in the host
        #: qdisc; keeps a fast sender from bufferbloating its own NIC
        self.tsq_limit_bytes = tsq_limit_bytes

        self.rtt = RttEstimator(min_rto=min_rto)
        self.counters = CounterSet()
        #: probe entity label, precomputed so the per-ACK telemetry path
        #: does not build an f-string per event
        self._probe_entity = f"flow-{flow_id}"
        #: virtual instants of the last telemetry samples handed to a
        #: downsampling sink; ``srtt_s`` has its own because that stream
        #: starts at the first RTT sample, not at the first ACK
        self._probe_kept = float("-inf")
        self._probe_srtt_kept = float("-inf")

        # sequence space
        self.snd_una = 0
        self.snd_nxt = 0
        #: peer's advertised receive window (updated from every ACK)
        self.rwnd_bytes = 64 * 1024
        self.app_bytes = total_bytes if total_bytes is not None else 0
        self.delivered_bytes = 0

        # outstanding segment bookkeeping (_order holds seqs in send
        # order, which is ascending for new data — reaping is O(acked))
        self._segments: Dict[int, SegmentInfo] = {}
        self._order: Deque[int] = deque()
        self._sacked = RangeSet()
        self._in_flight = 0
        self._retx_queue: Deque[int] = deque()
        self._retx_queued: set = set()

        # loss recovery state
        self._dupack_count = 0
        self._recovery_point: Optional[int] = None
        self._last_ecn_reduction: Optional[float] = None
        self._highest_sacked = 0
        self._epoch_scan: Optional[int] = None  # scoreboard scan cursor

        # pacing
        self._pacing_next = 0.0
        #: what the CCA answered when the pacing gate asked, once per
        #: send opportunity; the send it lets through spaces the next by
        #: it. Stays None for a CCA that is never asked (``_paces``).
        self._pacing_rate: Optional[float] = None
        self._pacing_event: Optional[Event] = None
        #: set when the host qdisc rejected a packet; cleared on drain
        self._local_block = False
        #: the last _try_send stopped on the host qdisc (local drop or
        #: TSQ) — the only stop a qdisc drain can lift; every other one
        #: (cwnd, pacing, no data) ends with an ACK, a timer or a write
        #: that calls _try_send itself
        self._qdisc_blocked = False
        #: last sequence that bypassed cwnd as the front hole (each
        #: distinct hole gets one free retransmission, like NewReno's
        #: partial-ACK rule — but never more than one per hole)
        self._front_bypass_seq = -1

        self._rto_timer = Timer(sim, self._on_rto)
        self.completed_at: Optional[float] = None
        self._on_complete: List[CompletionCallback] = []
        self._started = False

        host.register_flow(flow_id, self)
        self.cca: CongestionControl = cca_factory(self)
        #: whether the CCA's class has a ``pacing_rate_bps`` of its own.
        #: One that inherits the base class's answers None every time,
        #: so the pacing gate is not entered on its behalf at all.
        self._paces = (
            type(self.cca).pacing_rate_bps
            is not CongestionControl.pacing_rate_bps
        )

    # ------------------------------------------------------------------
    # CcContext protocol
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now

    @property
    def srtt(self) -> Optional[float]:
        """Smoothed RTT, if sampled."""
        return self.rtt.srtt

    @property
    def min_rtt(self) -> Optional[float]:
        """Minimum RTT observed on this connection."""
        return self.rtt.min_rtt

    def charge(self, cost_units: float) -> None:
        """Forward CCA computation cost to the host's energy listeners."""
        self.host.notify_cc_op(self.cca.name, cost_units, self.flow_id)

    # ------------------------------------------------------------------
    # application interface
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin transmitting whatever data is available."""
        self._started = True
        nic = self.host.nic
        if nic is not None and nic.tx_packet_gap_s > 0:
            # Wake on qdisc drain: releases TSQ backpressure and retries
            # after local drops.
            nic.add_drain_listener(self._on_qdisc_drain)
        self._try_send()

    def _on_qdisc_drain(self) -> None:
        if not self._qdisc_blocked:
            return
        if self._local_block:
            # Hysteresis, like the kernel's qdisc wakeups: after a local
            # drop, stay blocked until the queue has drained below the
            # CCA's watermark instead of hammering one packet per slot.
            # (The no-CC baseline sets its watermark at ~100% and pays
            # for the resulting churn in wasted transmit slots.)
            nic = self.host.nic
            if nic is not None and nic.tx_backlog_packets > int(
                self.cca.qdisc_retry_watermark * nic.tx_queue_packets
            ):
                nic.drain_waiters += 1  # still blocked: ask again
                return
            self._local_block = False
        self._try_send()

    def write(self, nbytes: int) -> None:
        """Make ``nbytes`` more application data available to send."""
        if nbytes < 0:
            raise TcpStateError(f"cannot write {nbytes} bytes")
        self.app_bytes += nbytes
        if self._started:
            self._try_send()

    def on_complete(self, callback: CompletionCallback) -> None:
        """Register a callback fired when ``total_bytes`` are fully ACKed
        (at once, with ``completed_at``, if they already are)."""
        if self.completed_at is not None:
            callback(self.completed_at)
        else:
            self._on_complete.append(callback)

    @property
    def complete(self) -> bool:
        """Whether the configured transfer has been fully acknowledged."""
        return self.completed_at is not None

    @property
    def bytes_in_flight(self) -> int:
        """Estimated bytes currently in the network."""
        return self._in_flight

    @property
    def in_recovery(self) -> bool:
        """Whether the sender is inside a loss-recovery episode."""
        return self._recovery_point is not None

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def _handle_packet(self, packet: Packet) -> None:
        """Process an incoming ACK."""
        if not packet.is_ack:
            self.counters["unexpected_data"] += 1.0
            return
        if packet.ack_seq > self.snd_nxt:
            raise TcpStateError(
                f"flow {self.flow_id}: ACK {packet.ack_seq} beyond "
                f"snd_nxt {self.snd_nxt}"
            )
        self.counters["acks"] += 1.0
        if packet.rwnd_bytes is not None:
            self.rwnd_bytes = packet.rwnd_bytes

        rtt_sample: Optional[float] = None
        if packet.echo_time is not None:
            rtt_sample = self.sim.now - packet.echo_time
            if rtt_sample > 0:
                self.rtt.on_sample(rtt_sample)

        # Header prediction: an ACK with no SACK block (every ACK of a
        # loss-free transfer) leaves the scoreboard alone.
        if packet.sacks:
            self._apply_sacks(packet.sacks)

        if packet.ack_seq > self.snd_una:
            self._handle_new_ack(packet, rtt_sample)
        else:
            self._handle_dupack(packet, rtt_sample)
            # Any ACK (including dupacks carrying SACK progress) shows the
            # connection is alive — rearm the RTO like the kernel does.
            if self.snd_nxt > self.snd_una:
                self._rto_timer.start(self.rtt.rto)

        self._try_send()

        sink = self.sim.probe_sink
        if sink.enabled:
            # Per-ACK congestion-state telemetry: the series the paper's
            # trajectory claims (§4.1, §4.5) are read from. Downsampling
            # is the sink's decision; a sample it would drop is not
            # built (same test, same floats, per stream).
            now = self.sim.now
            entity = self._probe_entity
            interval = sink.min_interval_s
            if interval is None or not (now - self._probe_kept < interval):
                self._probe_kept = now
                sink.sample(now, CWND_CHANNEL, entity, float(self.cca.cwnd))
                sink.sample(
                    now, SSTHRESH_CHANNEL, entity, float(self.cca.ssthresh)
                )
                sink.sample(
                    now,
                    RETRANSMITS_CHANNEL,
                    entity,
                    self.counters.get("retransmits"),
                )
            if self.rtt.srtt is not None and (
                interval is None or not (now - self._probe_srtt_kept < interval)
            ):
                self._probe_srtt_kept = now
                sink.sample(now, SRTT_CHANNEL, entity, self.rtt.srtt)

    #: the endpoint entry the host demuxes to; one function under two
    #: names, because bench/trace.py counts ACKs as ``_handle_packet`` calls
    handle_packet = _handle_packet

    def _make_event(
        self,
        packet: Packet,
        newly_acked: int,
        rtt_sample: Optional[float],
        delivery_rate: Optional[float],
        app_limited: bool,
    ) -> AckEvent:
        # positional, in AckEvent's field order: one per ACK, and a
        # keyword costs more than the store it names
        return AckEvent(
            newly_acked,
            packet.ack_seq,
            rtt_sample,
            self._in_flight,
            self._recovery_point is not None,
            packet.ecn_echo,
            packet.ecn_marked_bytes,
            delivery_rate,
            app_limited,
            packet.int_qlen_bytes,
            packet.int_tx_bytes,
            packet.int_timestamp,
            packet.int_link_rate_bps,
        )

    def _handle_new_ack(
        self,
        packet: Packet,
        rtt_sample: Optional[float],
    ) -> None:
        newly_acked = packet.ack_seq - self.snd_una
        self.snd_una = packet.ack_seq
        self.delivered_bytes += newly_acked
        self._dupack_count = 0
        delivery_rate, app_limited = self._reap_acked_segments(packet.ack_seq)
        if self._sacked.total_bytes:
            self._sacked.trim_below(packet.ack_seq)

        event = self._make_event(
            packet, newly_acked, rtt_sample, delivery_rate, app_limited
        )

        if self._recovery_point is not None:
            if packet.ack_seq >= self._recovery_point:
                self._recovery_point = None
                self._epoch_scan = None
                self.cca.on_recovery_exit()
                self.counters["recovery_exits"] += 1.0
                self._maybe_ecn_react(event)
                self.cca.on_ack(event)
            else:
                # Partial ACK: the hole at the new snd_una was also lost,
                # and the SACK scoreboard may expose further holes.
                self.counters["partial_acks"] += 1.0
                self._queue_retransmit(self.snd_una)
                self._queue_sack_holes()
        else:
            # the common ACK carries no ECN feedback: not worth a frame
            if packet.ecn_echo or packet.ecn_marked_bytes:
                self._maybe_ecn_react(event)
            self.cca.on_ack(event)

        if self.snd_nxt > self.snd_una:
            self._rto_timer.start(self.rtt.rto)
        else:
            self._rto_timer.stop()

        # one ACK per transfer completes it
        if self.total_bytes is not None and self.snd_una >= self.total_bytes:
            self._check_complete()

    def _handle_dupack(
        self,
        packet: Packet,
        rtt_sample: Optional[float],
    ) -> None:
        if self.snd_nxt == self.snd_una:
            return  # window update / stray ACK, nothing outstanding
        self._dupack_count += 1
        self.counters["dupacks"] += 1.0
        event = self._make_event(packet, 0, rtt_sample, None, False)
        self.cca.on_dupack(event)

        sack_loss = self._sacked.total_bytes >= DUPACK_THRESHOLD * self.mss
        if self._recovery_point is not None:
            self._queue_sack_holes()
        elif self._dupack_count >= DUPACK_THRESHOLD or sack_loss:
            self._enter_fast_recovery(event)

    def _enter_fast_recovery(self, event: AckEvent) -> None:
        self._recovery_point = self.snd_nxt
        self._epoch_scan = self.snd_una
        self.counters["fast_recoveries"] += 1.0
        self.cca.on_congestion_event(event)
        self._queue_retransmit(self.snd_una)
        self._queue_sack_holes()

    def _queue_sack_holes(self) -> None:
        """RFC 6675-style scoreboard: every unsacked segment below the
        highest SACKed byte is presumed lost and queued for retransmit.

        The scan cursor only moves forward within one recovery epoch, so
        total scan work per epoch is O(window) even under heavy loss.
        """
        if self._recovery_point is None or self._epoch_scan is None:
            return
        limit = min(self._highest_sacked, self._recovery_point)
        cursor = max(self._epoch_scan, self.snd_una)
        while cursor < limit:
            seg = self._segments.get(cursor)
            if seg is None:
                # Either reaped (below snd_una — cannot happen given the
                # max above) or mid-segment; step by MSS to resync.
                cursor += self.mss
                continue
            if not seg.sacked:
                self._queue_retransmit(seg.seq)
            cursor = seg.end_seq
        self._epoch_scan = cursor

    def _maybe_ecn_react(self, event: AckEvent) -> None:
        """Classic CCAs cut at most once per RTT on ECE; DCTCP-style
        controllers see every ACK's marked-byte feedback via on_ecn."""
        if not event.ecn_echo and event.ecn_marked_bytes == 0:
            return
        if getattr(self.cca, "reacts_per_ack_to_ecn", False):
            self.cca.on_ecn(event)
            return
        if not event.ecn_echo:
            return
        window = self.rtt.srtt or self.rtt.min_rtt or 0.0
        last = self._last_ecn_reduction
        if last is None or self.sim.now - last >= window:
            self._last_ecn_reduction = self.sim.now
            self.counters["ecn_reductions"] += 1.0
            self.cca.on_ecn(event)

    # ------------------------------------------------------------------
    # SACK / segment bookkeeping
    # ------------------------------------------------------------------

    def _apply_sacks(self, sacks: "tuple[tuple[int, int], ...]") -> None:
        """Fold an ACK's SACK blocks into the scoreboard and mark the
        segments they newly cover.

        A block is a union of whole segments (the receiver only ever
        holds what this sender transmitted), so the newly covered ones
        are found by walking ``_segments`` from the block's first byte
        the scoreboard did not already hold, segment end to segment end
        — not by testing every outstanding segment on every ACK.
        """
        snd_una = self.snd_una
        sacked = self._sacked
        segments = self._segments
        for start, end in sacks:
            if end <= start or end <= snd_una:
                continue  # empty, or stale: fully below the cumulative ACK
            if end > self._highest_sacked:
                self._highest_sacked = end
            cursor = sacked.first_missing_after(max(start, snd_una))
            if cursor >= end:
                continue  # a block the scoreboard already holds in full
            sacked.add(cursor, end)
            while cursor < end:
                seg = segments.get(cursor)
                if seg is None:
                    # mid-segment: step by MSS to resync, as
                    # _queue_sack_holes does
                    cursor += self.mss
                    continue
                cursor = seg.end_seq
                if cursor <= end and not seg.sacked:
                    seg.sacked = True
                    if seg.in_flight:
                        seg.in_flight = False
                        self._in_flight -= seg.length

    def _reap_acked_segments(
        self, ack_seq: int
    ) -> "tuple[Optional[float], bool]":
        """Remove fully-ACKed segments; return a BBR-style delivery-rate
        sample from the newest non-retransmitted segment covered.

        ``_order`` is ascending in seq, so this is O(segments acked)
        amortized rather than O(outstanding) per ACK.
        """
        best: Optional[SegmentInfo] = None
        order = self._order
        segments = self._segments
        while order:
            seq = order[0]
            seg = segments.get(seq)
            if seg is None:
                order.popleft()
                continue
            if seg.end_seq > ack_seq:
                break
            order.popleft()
            del segments[seq]
            if seg.in_flight:
                self._in_flight -= seg.length
            if not seg.retransmitted:
                best = seg  # ascending order: the last one wins
        if best is None:
            return None, False
        elapsed = self.sim.now - best.first_sent_time
        if elapsed <= 0:
            return None, best.app_limited
        acked_since = self.delivered_bytes - best.delivered_at_send
        if acked_since <= 0:
            return None, best.app_limited
        return acked_since * BITS_PER_BYTE / elapsed, best.app_limited

    # ------------------------------------------------------------------
    # RTO
    # ------------------------------------------------------------------

    def _on_rto(self) -> None:
        if self.snd_nxt == self.snd_una:
            return
        self.counters["rtos"] += 1.0
        self.rtt.backoff()
        self.cca.on_rto()
        # Everything outstanding and un-SACKed is presumed lost.
        self._recovery_point = self.snd_nxt
        for seq in sorted(self._segments):
            seg = self._segments[seq]
            if seg.sacked:
                continue
            if seg.in_flight:
                seg.in_flight = False
                self._in_flight -= seg.length
            self._queue_retransmit(seq)
        self._rto_timer.start(self.rtt.rto)
        self._try_send()

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------

    def _queue_retransmit(self, seq: int) -> None:
        seg = self._segments.get(seq)
        if seg is None or seg.sacked:
            return
        if seg.in_flight:
            seg.in_flight = False
            self._in_flight -= seg.length
        if seq not in self._retx_queued:
            self._retx_queued.add(seq)
            self._retx_queue.append(seq)

    def _cwnd_allows(self, nbytes: int) -> bool:
        window = min(self.cca.cwnd, self.rwnd_bytes)
        return self._in_flight + nbytes <= window or self._in_flight == 0

    def _pacing_gate(self) -> bool:
        """True when pacing permits a send now; otherwise schedules a
        wakeup and returns False. Entered once per send opportunity,
        and only for a CCA that paces (``_paces``)."""
        rate = self._pacing_rate = self.cca.pacing_rate_bps()
        if rate is None or rate <= 0:
            return True
        if self.sim.now >= self._pacing_next:
            return True
        if self._pacing_event is None or not self._pacing_event.alive:
            self._pacing_event = self.sim.schedule_at(
                self._pacing_next, self._pacing_wakeup
            )
        return False

    def _pacing_wakeup(self) -> None:
        self._pacing_event = None
        self._try_send()

    def _try_send(self) -> None:
        self._qdisc_blocked = False
        if not self._started or self.completed_at is not None:
            return
        # TCP Small Queues: don't stack more of this flow in the qdisc
        # of a paced NIC than the limit. The NIC's per-flow backlog is
        # read in place, once per segment, and only while it holds
        # something: an empty qdisc is under every limit.
        nic = self.host.nic
        tsq_backlog = (
            nic.flow_backlog
            if nic is not None
            and nic.tx_packet_gap_s > 0
            and self.cca.respects_tsq
            else None
        )
        while True:
            if self._local_block or (
                tsq_backlog
                and tsq_backlog.get(self.flow_id, 0) >= self.tsq_limit_bytes
            ):
                # only a qdisc drain lifts this stop: ask for the wake-up
                self._qdisc_blocked = True
                if nic is not None:
                    nic.drain_waiters += 1
                return
            # Retransmissions take priority over new data. The front
            # hole (snd_una) may bypass cwnd once per distinct hole —
            # the NewReno partial-ACK retransmission — but never more,
            # so repeated in-network loss of the same segment cannot
            # turn the bypass into an unbounded retransmission stream.
            seq = self._peek_retransmit() if self._retx_queue else None
            if seq is not None:
                seg = self._segments[seq]
                if not self._cwnd_allows(seg.length):
                    bypass_ok = (
                        seq == self.snd_una and seq != self._front_bypass_seq
                    )
                    if not bypass_ok:
                        return
                    self._front_bypass_seq = seq
                if self._paces and not self._pacing_gate():
                    return
                self._retx_queue.popleft()
                self._retx_queued.discard(seq)
                self._transmit_segment(seg, retransmit=True)
                continue
            # the next new segment: what the application has written,
            # capped by the transfer size and the MSS
            available = self.app_bytes - self.snd_nxt
            if self.total_bytes is not None:
                available = min(available, self.total_bytes - self.snd_nxt)
            size = min(self.mss, available)
            if size <= 0:
                return
            # "not _cwnd_allows(size)" written out: once per new segment
            in_flight = self._in_flight
            if in_flight and not in_flight + size <= min(
                self.cca.cwnd, self.rwnd_bytes
            ):
                return
            if self._paces and not self._pacing_gate():
                return
            self._transmit_new(size)

    def _peek_retransmit(self) -> Optional[int]:
        retx = self._retx_queue
        while retx:
            seq = retx[0]
            seg = self._segments.get(seq)
            if seg is None or seg.sacked or seg.end_seq <= self.snd_una:
                retx.popleft()
                self._retx_queued.discard(seq)
                continue
            return seq
        return None

    def _transmit_new(self, size: int) -> None:
        app_limited = (
            size < self.mss or self.app_bytes - self.snd_nxt - size <= 0
        )
        now = self.sim.now
        # positional, in SegmentInfo's field order: seq, length, first
        # sent, sent, delivered at send, retransmitted, sacked,
        # in flight, app limited
        seg = SegmentInfo(
            self.snd_nxt, size, now, now, self.delivered_bytes,
            False, False, True, app_limited,
        )
        self._segments[seg.seq] = seg
        self._order.append(seg.seq)
        self.snd_nxt += size
        self._in_flight += size
        self._send_packet(seg, retransmitted=False)

    def _transmit_segment(self, seg: SegmentInfo, retransmit: bool) -> None:
        seg.retransmitted = seg.retransmitted or retransmit
        seg.sent_time = self.sim.now
        seg.in_flight = True
        self._in_flight += seg.length
        self.counters["retransmits"] += 1.0
        self._send_packet(seg, retransmitted=True)

    def _send_packet(self, seg: SegmentInfo, retransmitted: bool) -> None:
        # pFabric-style priority: the flow's remaining bytes, so a
        # priority-scheduled bottleneck approximates SRPT. FIFO queues
        # ignore the field.
        if self.total_bytes is not None:
            remaining = max(0, self.total_bytes - self.snd_una)
        else:
            remaining = None
        packet = Packet(
            self.flow_id, self.host.name, self.dst, seg.seq, seg.length,
            ecn_capable=self.ecn_capable,
            retransmitted=retransmitted,
            priority=remaining,
        )
        self.counters["segments_sent"] += 1.0
        self.counters["bytes_sent"] += seg.length
        rate = self._pacing_rate
        if rate is not None and rate > 0:
            now = self.sim.now
            self._pacing_next = (
                max(now, self._pacing_next)
                + packet.wire_bytes * BITS_PER_BYTE / rate
            )
        accepted = self.host.send(packet)
        if not accepted:
            # The host qdisc rejected the packet (local congestion). The
            # kernel learns this synchronously: the segment goes straight
            # back on the retransmit queue and we pause until the qdisc
            # drains. It still counts as a retransmission when resent,
            # which is how the paper's no-TSQ baseline racks up millions
            # of retransmits without collapsing.
            self.counters["local_drops"] += 1.0
            seg.in_flight = False
            self._in_flight -= seg.length
            self._local_block = True
            self._queue_retransmit(seg.seq)
        if self._rto_timer.expiry is None:
            self._rto_timer.start(self.rtt.rto)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------

    def _check_complete(self) -> None:
        if (
            self.completed_at is None
            and self.total_bytes is not None
            and self.snd_una >= self.total_bytes
        ):
            self.completed_at = self.sim.now
            self._rto_timer.stop()
            if self._pacing_event is not None and self._pacing_event.alive:
                self._pacing_event.cancel()
            for callback in self._on_complete:
                callback(self.sim.now)

    @property
    def flow_completion_time(self) -> Optional[float]:
        """Seconds from t=0 to full acknowledgement, if finished."""
        return self.completed_at
