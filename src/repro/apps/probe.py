"""Throughput probes: periodic goodput sampling for timeseries figures.

Fig. 3 plots per-flow throughput over time. A :class:`ThroughputProbe`
samples a flow's byte counter on a fixed interval and records
instantaneous goodput, the simulation analogue of iperf3's interval
reports.

Two vantage points are supported: the sender's cumulative-ACK counter
(bursty: a filled hole releases many bytes at once) and the receiver's
arrival counter (smooth; what iperf3's server-side report shows). The
figures use the receiver view.

Each probe records into its own :class:`~repro.sim.trace.TimeSeries`
(:attr:`ThroughputProbe.series`, what the figures read; named
``flow-N:throughput_bps`` like its telemetry stream) and mirrors every
sample to ``sim.probe_sink`` so traced runs get the same series in
their telemetry files for free.
"""

from __future__ import annotations

from typing import Callable, Union

from repro.sim.engine import Simulator
from repro.sim.probe import THROUGHPUT_CHANNEL
from repro.sim.timer import PeriodicTimer
from repro.sim.trace import TimeSeries
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.units import BITS_PER_BYTE, msec

Endpoint = Union[TcpSender, TcpReceiver]


def _byte_counter(endpoint: Endpoint) -> Callable[[], int]:
    if isinstance(endpoint, TcpSender):
        return lambda: endpoint.delivered_bytes
    return lambda: endpoint.bytes_received


class ThroughputProbe:
    """Samples one flow's goodput every ``interval_s`` seconds."""

    def __init__(
        self,
        sim: Simulator,
        endpoint: Endpoint,
        interval_s: float = msec(1.0),
        name: str = "",
    ):
        self.sim = sim
        self.endpoint = endpoint
        self.interval_s = interval_s
        self._read = _byte_counter(endpoint)
        self.entity = name or f"flow-{endpoint.flow_id}"
        #: the goodput samples collected so far (bps over virtual time)
        self.series = TimeSeries(name=f"{self.entity}:{THROUGHPUT_CHANNEL}")
        self._last_bytes = 0
        self._timer = PeriodicTimer(sim, interval_s, self._sample)

    def start(self) -> None:
        """Begin sampling (first sample after one interval)."""
        self._last_bytes = self._read()
        self._timer.start()

    def stop(self) -> None:
        """Stop sampling."""
        self._timer.stop()

    def _sample(self) -> None:
        current = self._read()
        delta = current - self._last_bytes
        self._last_bytes = current
        throughput_bps = delta * BITS_PER_BYTE / self.interval_s
        now = self.sim.now
        self.series.record(now, throughput_bps)
        sink = self.sim.probe_sink
        if sink.enabled:
            sink.sample(now, THROUGHPUT_CHANNEL, self.entity, throughput_bps)
