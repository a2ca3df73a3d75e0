"""Telemetry probe sinks: how the simulated testbed reports time series.

The paper's claims are *trajectory* claims — power is concave in
throughput (§4.1), energy tracks retransmissions (§4.5) — so the
reproduction needs in-flight series (cwnd, queue depth, instantaneous
power) the way the harness-level journal records run outcomes. This
module defines the neutral half of that channel:

* :class:`ProbeSink` — the no-op protocol instrumented components call.
  Emission sites gate on :attr:`ProbeSink.enabled` and hand over only
  ``(virtual time, channel, entity, value)`` copies, so an untraced run
  pays an attribute read and a branch per sample point.
* :class:`TimeSeriesProbeSink` — records samples into per-
  ``(channel, entity)`` :class:`~repro.sim.trace.TimeSeries`, with
  optional interval-based downsampling for high-rate channels (per-ACK
  cwnd samples at 10 Gb/s arrive every few microseconds).

The sink protocol deliberately lives sim-side: instrumented components
(``tcp/sender.py``, ``net/queue.py``, ``energy/cpu.py``) import *this*
module, never ``repro.obs``, so the ``obs-no-feedback`` lint rule — the
simulation must not read observability state — keeps holding. The
observability layer implements the protocol from the other side
(:mod:`repro.obs.telemetry`). Samples are stamped exclusively with
virtual time; a wall-clock stamp fails the jobs=1/4 telemetry identity
tests (``tests/harness/test_trace_determinism.py``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.sim.trace import TimeSeries

#: a probe stream's identity: (channel, entity), e.g.
#: ("cwnd_bytes", "flow-1") or ("queue_depth_bytes", "bottleneck")
ProbeKey = Tuple[str, str]

#: channel names the shipped emission sites use
CWND_CHANNEL = "cwnd_bytes"
SSTHRESH_CHANNEL = "ssthresh_bytes"
SRTT_CHANNEL = "srtt_s"
RETRANSMITS_CHANNEL = "retransmits"
QUEUE_DEPTH_CHANNEL = "queue_depth_bytes"
QUEUE_DROPS_CHANNEL = "queue_drops"
POWER_CHANNEL = "power_w"
ENERGY_CHANNEL = "energy_j"
THROUGHPUT_CHANNEL = "throughput_bps"


class ProbeSink:
    """No-op telemetry sink: the zero-overhead default.

    Instrumented components call ``sink.sample(...)`` after checking
    :attr:`enabled`; the base class swallows everything, so simulation
    behaviour is identical whether telemetry is collected or not — the
    sink only ever receives copies of numbers, never objects the
    simulation reads back.
    """

    #: emission sites skip sample construction when this is False
    enabled: bool = False

    #: virtual seconds after a kept sample during which the sink drops
    #: further samples of the same stream; ``None`` (this no-op sink)
    #: means nothing is dropped on time. A high-rate emission
    #: site that is the only emitter of its streams may remember when it
    #: last sampled each one and apply the sink's own test
    #: (``now - last < min_interval_s``) before building a sample; the
    #: sink tests again, so a site can only skip what the sink would drop.
    min_interval_s: Optional[float] = None

    def sample(
        self, time_s: float, channel: str, entity: str, value: float
    ) -> None:
        """Record one ``(virtual time, value)`` sample on a channel."""


#: the shared no-op sink every simulator starts with
NULL_PROBE_SINK = ProbeSink()


class TimeSeriesProbeSink(ProbeSink):
    """Records samples into one :class:`TimeSeries` per (channel, entity).

    ``min_interval_s`` downsamples each stream independently: after a
    kept sample, further samples on the same stream are dropped until
    at least that much virtual time has passed. ``None`` keeps every
    sample (what figure pipelines reading exact series want).
    """

    enabled = True

    def __init__(self, min_interval_s: Optional[float] = None):
        # written so that NaN fails too
        if min_interval_s is not None and not min_interval_s >= 0:
            raise ValueError(
                f"min_interval_s must be >= 0, got {min_interval_s}"
            )
        self.min_interval_s = min_interval_s
        self._series: Dict[ProbeKey, TimeSeries] = {}
        self._last_kept: Dict[ProbeKey, float] = {}

    def sample(
        self, time_s: float, channel: str, entity: str, value: float
    ) -> None:
        key = (channel, entity)
        series = self._series.get(key)
        if series is None:
            # runs once per (channel, entity), not per event: the branch
            # is only taken on a stream's very first sample
            series = TimeSeries(name=f"{entity}:{channel}")
            self._series[key] = series
        elif self.min_interval_s is not None:
            if time_s - self._last_kept[key] < self.min_interval_s:
                return
        series.record(time_s, value)
        self._last_kept[key] = time_s

    def series(self, channel: str, entity: str) -> TimeSeries:
        """The recorded series for one stream (empty if never sampled)."""
        return self._series.get(
            (channel, entity), TimeSeries(name=f"{entity}:{channel}")
        )

    def channels(self) -> List[str]:
        """Distinct channel names seen, sorted."""
        return sorted({channel for channel, _entity in self._series})

    def items(self) -> Iterator[Tuple[ProbeKey, TimeSeries]]:
        """All recorded streams in (channel, entity) order."""
        for key in sorted(self._series):
            yield key, self._series[key]

    def __len__(self) -> int:
        return len(self._series)

