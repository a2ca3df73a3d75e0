"""Sample-gate oracle: a call site may skip only what the sink would drop.

``TcpSender._handle_packet`` (four streams per ACK) and
``DropTailQueue._probe_depth`` (one per queue operation) remember when
they last sampled each stream and apply the sink's own ``min_interval_s``
test before building a sample. The oracle is the behaviour that
replaced: emit on every ACK and every queue operation and let the sink
decide alone. Every stream must come out equal under both, for every
interval, on a loss-free and on a lossy run.

The gate is *per stream* because streams of one call site need not start
together: ``srtt_s`` exists only from the first RTT sample on, and an
ACK without an echo time takes none. The shipped receiver echoes a
timestamp on every ACK, so on both whole-run shapes the four streams of
a flow share their instants; the scripted case at the bottom builds the
late start by hand, and is the one a single shared instant per sender
fails.
"""

import pytest

import repro.apps.iperf as iperf
import repro.net.topology as topology
from repro.cc.registry import factory
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import run_once
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue, EcnQueue, PriorityQueue
from repro.sim.engine import Simulator
from repro.sim.probe import (
    CWND_CHANNEL,
    QUEUE_DEPTH_CHANNEL,
    SRTT_CHANNEL,
    TimeSeriesProbeSink,
)
from repro.tcp.sender import TcpSender

from tests.tcp.conftest import StubHost
from tests.tcp.test_wakeup_oracle import SCENARIOS

SHAPES = {
    # one cell of the CCA x MTU grid at the bench workload's size
    "cca_mtu_grid": (
        Scenario(
            name="grid-cubic-mtu1500",
            flows=[FlowSpec(1_000_000, cca="cubic")],
            mtu_bytes=1500,
            packages=1,
        ),
        0,
    ),
    "lossy_mix": (SCENARIOS["lossy_mix"], 3),
}

#: keep everything / keep everything through the interval branch / the
#: trace directory's default / fine enough that every stream alternates
#: between kept and dropped on both shapes
INTERVALS = (None, 0.0, 1e-3, 50e-6)


class EveryAckSender(TcpSender):
    """Hands the sink all four samples on every ACK."""

    def _handle_packet(self, packet) -> None:
        self._probe_kept = self._probe_srtt_kept = float("-inf")
        super()._handle_packet(packet)


class _EveryOperation:
    """Hands the sink a depth sample on every enqueue and dequeue."""

    def _probe_depth(self, sim) -> None:
        sim.probe_sink.sample(
            sim.now, QUEUE_DEPTH_CHANNEL, self.name, float(self.occupancy_bytes)
        )


class EveryOperationDropTail(_EveryOperation, DropTailQueue):
    pass


class EveryOperationEcn(_EveryOperation, EcnQueue):
    pass


class EveryOperationPriority(_EveryOperation, PriorityQueue):
    pass


class CountingSink(TimeSeriesProbeSink):
    """A downsampling sink that also counts what it was offered."""

    def __init__(self, min_interval_s):
        super().__init__(min_interval_s)
        self.offered = 0

    def sample(self, time_s, channel, entity, value) -> None:
        self.offered += 1
        super().sample(time_s, channel, entity, value)


def traced(scenario, seed, interval):
    sink = CountingSink(interval)
    return run_once(scenario, seed=seed, probe_sink=sink), sink


@pytest.mark.parametrize("interval", INTERVALS, ids=str)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_stream_equals_sampling_everything(shape, interval, monkeypatch):
    scenario, seed = SHAPES[shape]
    shipped_run, shipped = traced(scenario, seed, interval)
    monkeypatch.setattr(iperf, "TcpSender", EveryAckSender)
    monkeypatch.setattr(topology, "DropTailQueue", EveryOperationDropTail)
    monkeypatch.setattr(topology, "EcnQueue", EveryOperationEcn)
    monkeypatch.setattr(topology, "PriorityQueue", EveryOperationPriority)
    oracle_run, oracle = traced(scenario, seed, interval)

    assert shipped_run == oracle_run
    kept, reference = dict(shipped.items()), dict(oracle.items())
    assert sorted(kept) == sorted(reference)
    for stream in reference:
        assert kept[stream] == reference[stream], stream
    # the run has the streams the oracle is about
    flows = len(scenario.flows)
    assert sum(channel == CWND_CHANNEL for channel, _ in reference) == flows
    assert sum(channel == SRTT_CHANNEL for channel, _ in reference) == flows
    if shape == "lossy_mix":
        # (the lone grid flow never finds the bottleneck busy, so it
        # never queues there)
        assert len(reference[QUEUE_DEPTH_CHANNEL, "bottleneck"]) > 1
    if interval:
        # what the gate is for: the sink was offered less, kept the same
        assert shipped.offered < oracle.offered
    else:
        assert shipped.offered == oracle.offered


@pytest.mark.parametrize("interval", (None, 0.0, 25e-6), ids=str)
def test_stream_that_starts_late_is_gated_on_its_own_instant(interval):
    """An ACK every 10 us, the first one without an echo time: at a
    25 us interval the sink keeps ``cwnd_bytes`` at 10, 40, 70... and
    ``srtt_s``, which starts at 20, at 20, 50, 80... One remembered
    instant for the whole sender would move ``srtt_s`` to 40, 70..."""
    def streams(sender_class):
        sink = CountingSink(interval)
        sim = Simulator()
        sim.probe_sink = sink
        sender = sender_class(
            sim, StubHost(sim), 1, "peer", factory("reno"), total_bytes=10_000_000
        )
        sender.start()
        for k in range(1, 41):
            at = k * 10e-6
            ack = Packet(
                flow_id=1, src="peer", dst="stub", is_ack=True,
                ack_seq=k * sender.mss, rwnd_bytes=1 << 30,
                echo_time=None if k == 1 else at - 5e-6,
            )
            sim.schedule_at(at, sender.handle_packet, ack)
        sim.run(until=1e-3)
        return sink

    shipped, oracle = streams(TcpSender), streams(EveryAckSender)
    assert dict(shipped.items()) == dict(oracle.items())
    cwnd = oracle.series(CWND_CHANNEL, "flow-1")
    srtt = oracle.series(SRTT_CHANNEL, "flow-1")
    assert cwnd.times[0] < srtt.times[0]
    if interval:
        assert len(cwnd) > 10
        assert not set(cwnd.times) & set(srtt.times)
