"""TCP receiver: reassembly, delayed ACKs, SACK generation, ECN echo.

The receiver side of the stack is deliberately simple — the paper's
workloads are one-directional bulk transfers — but it implements the
pieces that shape sender behaviour:

* cumulative + selective acknowledgements (up to 3 SACK blocks),
* delayed ACKs (every ``delack_segments`` full segments, with a timeout),
* immediate duplicate ACKs on out-of-order arrival (what fast retransmit
  keys on), and
* DCTCP-style ECN feedback: each ACK reports how many of the newly
  acknowledged bytes arrived CE-marked, plus the instantaneous CE echo
  bit. A CE state change forces an immediate ACK, per the DCTCP paper.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.net.host import Host
from repro.net.packet import Packet, ack_packet
from repro.sim.engine import Simulator
from repro.sim.timer import Timer
from repro.sim.trace import CounterSet, Counted
from repro.tcp.ranges import RangeSet
from repro.units import usec

CompletionCallback = Callable[[float], None]

#: Linux's minimum delayed-ACK timeout is 40 ms; datacenter stacks run
#: far lower. 500 µs keeps ACK clocking tight at 10 Gb/s scale.
DEFAULT_DELACK_TIMEOUT = usec(500)

#: initial receive window before autotuning opens it (Linux default
#: order of magnitude) and the tcp_rmem-style autotuning ceiling
DEFAULT_INITIAL_RWND = 64 * 1024
DEFAULT_MAX_RWND = 6 * 1024 * 1024


class TcpReceiver(Counted):
    """Receiving endpoint of one simulated TCP connection."""

    COUNTER_FIELDS = ("segments", "acks_sent")

    #: full segments a delayed ACK waits for (Linux acks every second one)
    delack_segments = 2
    #: the tcp_rmem-style autotuning ceiling of the advertised window
    max_rwnd_bytes = DEFAULT_MAX_RWND

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: int,
        peer: str,
        expected_bytes: int,
    ):
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.peer = peer
        self.expected_bytes = expected_bytes
        self.received = RangeSet()
        self.rcv_nxt = 0
        self.bytes_received = 0
        self._counters = CounterSet()
        self.segments = 0
        self.acks_sent = 0
        self.completed_at: Optional[float] = None
        self._on_complete: List[CompletionCallback] = []
        self._unacked_segments = 0
        self._pending_echo_time: Optional[float] = None
        self._ce_state = False  # last seen CE mark (DCTCP echo state)
        self._marked_bytes_pending = 0
        self._last_int: Optional[Packet] = None  # most recent INT carrier
        self._delack_timer = Timer(sim, self._delack_expired)
        host.register_flow(flow_id, self)

    # -- public API -------------------------------------------------------

    def on_complete(self, callback: CompletionCallback) -> None:
        """Register a callback fired once ``expected_bytes`` have arrived
        (at once, with ``completed_at``, if they already have)."""
        if self.completed_at is not None:
            callback(self.completed_at)
        else:
            self._on_complete.append(callback)

    @property
    def complete(self) -> bool:
        """Whether the expected transfer has fully arrived."""
        return self.completed_at is not None

    # -- packet handling ----------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        """Process one arriving data segment."""
        if packet.is_ack:
            # Bulk transfer is one-directional; stray ACKs are ignored.
            self._counters["stray_acks"] += 1.0
            return
        self.segments += 1
        received = self.received
        seq = packet.seq
        if seq == self.rcv_nxt and packet.payload_bytes and not received.total_bytes:
            # Header prediction: the next in-order segment with nothing
            # buffered (every segment of a loss-free transfer) goes
            # straight to rcv_nxt and never touches the reassembly set.
            self.rcv_nxt = packet.end_seq
            self.bytes_received += packet.payload_bytes
            must_ack_now = False
        else:
            end_seq = packet.end_seq
            # out of order, a duplicate, or buffered data this segment
            # may be filling a gap in: each must be acknowledged at once
            # (RFC 5681 §4.2), which is what fast retransmit keys on
            must_ack_now = seq > self.rcv_nxt or bool(received.total_bytes)
            if end_seq <= self.rcv_nxt or received.contains(seq, end_seq):
                self._counters["duplicate_segments"] += 1.0
                must_ack_now = True
            else:
                self.bytes_received += received.add(seq, end_seq)
            self.rcv_nxt = received.first_missing_after(self.rcv_nxt)
            received.trim_below(self.rcv_nxt)

        ce_changed = packet.ecn_marked != self._ce_state
        self._ce_state = packet.ecn_marked
        if packet.ecn_marked:
            self._counters["ce_marks"] += 1.0
            self._marked_bytes_pending += packet.payload_bytes
        self._pending_echo_time = packet.sent_time
        if packet.int_timestamp is not None:
            self._last_int = packet
        self._unacked_segments += 1

        finished = self.rcv_nxt >= self.expected_bytes
        if (
            must_ack_now
            or ce_changed
            or self._unacked_segments >= self.delack_segments
            or finished
        ):
            self._send_ack()
        elif self._delack_timer.expiry is None:
            self._delack_timer.start(DEFAULT_DELACK_TIMEOUT)

        if finished and self.completed_at is None:
            self.completed_at = self.sim.now
            for callback in self._on_complete:
                callback(self.sim.now)

    # -- internals ----------------------------------------------------------

    def _delack_expired(self) -> None:
        if self._unacked_segments > 0:
            self._send_ack()

    @property
    def advertised_rwnd(self) -> int:
        """Dynamic-right-sizing autotuning: the window opens with the
        data already received, from a small initial value up to the
        tcp_rmem-style ceiling. This is what bounds a constant-cwnd
        sender's initial burst on real systems."""
        return min(
            self.max_rwnd_bytes, DEFAULT_INITIAL_RWND + self.bytes_received
        )

    def _send_ack(self) -> None:
        self._delack_timer.stop()
        rcv_nxt = self.rcv_nxt
        received = self.received
        ack = ack_packet(
            self.flow_id, self.host.name, self.peer, rcv_nxt,
            # nothing buffered, nothing to selectively acknowledge
            received.blocks_above(rcv_nxt) if received.total_bytes else (),
            self._ce_state, self._marked_bytes_pending, self._pending_echo_time,
            # advertised_rwnd, written out: once per ACK
            min(self.max_rwnd_bytes, DEFAULT_INITIAL_RWND + self.bytes_received),
        )
        if self._last_int is not None:
            ack.int_qlen_bytes = self._last_int.int_qlen_bytes
            ack.int_tx_bytes = self._last_int.int_tx_bytes
            ack.int_timestamp = self._last_int.int_timestamp
            ack.int_link_rate_bps = self._last_int.int_link_rate_bps
            self._last_int = None
        self._unacked_segments = 0
        self._marked_bytes_pending = 0
        self.acks_sent += 1
        self.host.send(ack)
