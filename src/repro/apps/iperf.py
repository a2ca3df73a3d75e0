"""iperf3-style bulk-transfer sessions.

The paper generates all traffic with ``iperf3 -n <bytes> [-b <rate>]``.
:class:`IperfSession` reproduces that: it wires a
:class:`~repro.tcp.sender.TcpSender` / :class:`~repro.tcp.receiver.TcpReceiver`
pair across a testbed, optionally pacing the *application* writes to hit
a target bitrate (iperf3's ``-b`` works at the application layer, above
TCP — which is how the paper caps one flow's throughput in Fig. 1), and
reports an :class:`IperfResult` with the fields the paper's analysis
uses: completion time, retransmissions, mean throughput.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.net.host import Host
from repro.net.topology import Fabric
from repro.sim.engine import Simulator
from repro.sim.timer import PeriodicTimer
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import CompletionCallback, TcpSender
from repro.cc.registry import factory as cca_factory
from repro.units import BITS_PER_BYTE, usec

_flow_ids = itertools.count(1)

#: application write-pacing tick for rate-limited sessions
WRITE_INTERVAL_S = usec(200)

#: CCAs that negotiate ECN on the connection by default
ECN_ALGORITHMS = frozenset({"dctcp", "bbr2", "dcqcn"})


@dataclass
class IperfResult:
    """Summary of one completed transfer (iperf3's closing report)."""

    flow_id: int
    cca: str
    bytes_transferred: int
    start_time: float
    end_time: float
    retransmissions: int

    @property
    def duration_s(self) -> float:
        """Flow completion time ("Iperf Time" in the paper's Fig. 7)."""
        return self.end_time - self.start_time

    @property
    def mean_throughput_bps(self) -> float:
        """Goodput over the whole transfer."""
        if self.duration_s <= 0:
            return 0.0
        return self.bytes_transferred * BITS_PER_BYTE / self.duration_s


class IperfSession:
    """One sender->receiver bulk transfer over a :class:`Fabric`.

    Parameters
    ----------
    total_bytes:
        Transfer size (``iperf3 -n``).
    cca:
        Congestion control algorithm name (``-C``).
    target_bitrate_bps:
        Application-level pacing (``-b``); None sends as fast as TCP allows.
    start_time:
        Virtual time at which the client begins writing; ``None`` leaves
        the session dormant until :meth:`begin` is called (used for
        completion-chained full-speed-then-idle schedules).
    src_host / dst_host:
        Endpoint hosts. They default to the graph's first and last host:
        on the testbed, its (first) sender and its receiver. On a
        multi-switch fabric any host pair may converse, so its sessions
        name both.
    """

    def __init__(
        self,
        testbed: Fabric,
        total_bytes: int,
        cca: str = "cubic",
        target_bitrate_bps: Optional[float] = None,
        start_time: Optional[float] = 0.0,
        flow_id: Optional[int] = None,
        cca_kwargs: Optional[dict] = None,
        src_host: Optional[Host] = None,
        dst_host: Optional[Host] = None,
    ):
        if total_bytes <= 0:
            raise ExperimentError(f"transfer size must be > 0, got {total_bytes}")
        if target_bitrate_bps is not None and target_bitrate_bps <= 0:
            raise ExperimentError(
                f"target bitrate must be > 0, got {target_bitrate_bps}"
            )
        src = testbed.sender if src_host is None else src_host
        dst = testbed.receiver if dst_host is None else dst_host
        self.sim = testbed.sim
        self.total_bytes = total_bytes
        self.cca = cca
        self.target_bitrate_bps = target_bitrate_bps
        self.start_time = start_time
        self.flow_id = flow_id if flow_id is not None else next(_flow_ids)

        self.receiver = TcpReceiver(
            self.sim,
            dst,
            self.flow_id,
            peer=src.name,
            expected_bytes=total_bytes,
        )
        rate_limited = target_bitrate_bps is not None
        self.sender = TcpSender(
            self.sim,
            src,
            self.flow_id,
            dst=dst.name,
            cca_factory=cca_factory(cca, **(cca_kwargs or {})),
            total_bytes=total_bytes,
            ecn_capable=cca in ECN_ALGORITHMS,
        )
        if rate_limited:
            # iperf3 -b: the client writes in paced bursts; TCP below is
            # unconstrained. Stage the first burst at start time.
            self.sender.app_bytes = 0
            self._written = 0
            self._write_carry = 0.0
            self._writer = PeriodicTimer(self.sim, WRITE_INTERVAL_S, self._write_tick)
        else:
            self._writer = None
        self._begun = False
        if start_time is not None:
            self.sim.schedule_at(start_time, self._start)

    # -- lifecycle ---------------------------------------------------------

    def begin(self) -> None:
        """Start a dormant session now (idempotent)."""
        self._start()

    def begin_after(self, predecessor: "IperfSession", arrival_s: float) -> None:
        """Chain this dormant session behind ``predecessor``.

        It begins when the predecessor completes, but never before its
        own arrival time — the open-workload form of the paper's
        full-speed-then-idle schedule.
        """
        predecessor.sender.on_complete(
            lambda done_t: self.sim.schedule_at(
                max(done_t, arrival_s), self.begin
            )
        )

    def uncap(self) -> None:
        """Remove the application rate cap; remaining data is handed to
        TCP immediately (the flow then "uses the rest of the link")."""
        self.target_bitrate_bps = None
        if self._writer is not None:
            self._writer.stop()
            self._writer = None
            remaining = self.total_bytes - self._written
            if remaining > 0 and self._begun:
                self._written = self.total_bytes
                self.sender.write(remaining)
            elif remaining > 0:
                # Not begun yet: _start() will see no writer and the
                # sender already has the full payload staged.
                self._written = self.total_bytes
                self.sender.app_bytes = self.total_bytes

    def _start(self) -> None:
        if self._begun:
            return
        self._begun = True
        if self.start_time is None:
            self.start_time = self.sim.now
        if self._writer is not None:
            self._write_tick()
            self._writer.start()
        self.sender.start()

    def _write_tick(self) -> None:
        assert self.target_bitrate_bps is not None
        budget = self.target_bitrate_bps * WRITE_INTERVAL_S / BITS_PER_BYTE
        budget += self._write_carry
        chunk = int(budget)
        self._write_carry = budget - chunk
        chunk = min(chunk, self.total_bytes - self._written)
        if chunk > 0:
            self._written += chunk
            self.sender.write(chunk)
        if self._written >= self.total_bytes and self._writer is not None:
            self._writer.stop()

    # -- results -----------------------------------------------------------

    @property
    def complete(self) -> bool:
        """Whether the transfer is fully acknowledged."""
        return self.sender.complete

    def on_complete(self, callback: CompletionCallback) -> None:
        """Register a callback fired when the transfer is fully ACKed."""
        self.sender.on_complete(callback)

    def result(self) -> IperfResult:
        """The closing report (only valid once complete)."""
        if not self.complete:
            raise ExperimentError(
                f"flow {self.flow_id} not complete at t={self.sim.now:.6f}"
            )
        assert self.sender.completed_at is not None
        return IperfResult(
            flow_id=self.flow_id,
            cca=self.cca,
            bytes_transferred=self.total_bytes,
            start_time=self.start_time,
            end_time=self.sender.completed_at,
            retransmissions=int(self.sender.counters.get("retransmits")),
        )


#: how many stuck flow ids a completion error spells out; a 1k-flow
#: fabric's message stays one readable line
_STUCK_IDS_SHOWN = 8


def _stuck_error(label: str, flows: Sequence[Any], what: str) -> ExperimentError:
    stuck = [f.flow_id for f in flows if not f.complete]
    shown = ", ".join(str(fid) for fid in stuck[:_STUCK_IDS_SHOWN])
    if len(stuck) > _STUCK_IDS_SHOWN:
        shown += f", ... (+{len(stuck) - _STUCK_IDS_SHOWN} more)"
    return ExperimentError(
        f"{label}: {what} with {len(stuck)} of {len(flows)} flows "
        f"incomplete: [{shown}]"
    )


def drive_until_complete(
    sim: Simulator,
    flows: Sequence[Any],
    time_limit_s: float,
    label: str,
) -> None:
    """Run ``sim`` until every flow has completed.

    The one completion driver every run path shares. ``flows`` are
    anything with ``complete``, ``flow_id`` and ``on_complete``
    (sessions, bare senders); ``label`` names the scenario in the
    error. Completion is counted, not polled: each flow still running
    at entry gets one callback, and the last one to fire stops the
    simulator on that event. Raises :class:`ExperimentError` naming
    the stuck flows if the event queue drains first or only events
    later than ``time_limit_s`` remain (none of those is dispatched) —
    a stuck experiment should fail loudly, not return bogus energy.
    A flow that outlives the driver keeps its callback, which is inert
    from then on: whoever resumes the simulator is not stopped by it.
    """
    remaining = 0
    driving = True

    def flow_done(_completed_at: float) -> None:
        nonlocal remaining
        remaining -= 1
        if remaining == 0 and driving:
            sim.stop()

    for flow in flows:
        if not flow.complete:
            remaining += 1
            flow.on_complete(flow_done)
    if remaining:
        try:
            sim.run(until=time_limit_s)
        finally:
            driving = False
    if remaining:
        raise _stuck_error(
            label,
            flows,
            "event queue drained"
            if sim.pending_events == 0
            else f"time limit of {time_limit_s}s virtual passed",
        )


def run_until_complete(
    testbed: Fabric,
    sessions: List[IperfSession],
    time_limit_s: float = 600.0,
) -> List[IperfResult]:
    """Drive the simulator until every session completes.

    Raises :class:`ExperimentError` if the time limit passes first (see
    :func:`drive_until_complete`).
    """
    drive_until_complete(testbed.sim, sessions, time_limit_s, "iperf")
    return [s.result() for s in sessions]
