"""Oracles for the per-packet call shapes.

The four objects allocated per segment, packet and ACK are built
positionally at their hot call sites (a data segment and an ACK by a
constructor of their own, whose parameters are the fields that kind
sets, each checked against the generic ``Packet(...)`` of the same
fields), and three per-packet questions are
answered without a call: whether the CCA paces (``TcpSender._paces``),
whether the window admits the next new segment (written out in
``_try_send``), and the retransmission timeout (a field, see
``tests/tcp/test_rtt.py``). A positional call fails silently when two
arguments swap, so each site is driven through the real method with a
distinct value per source and every field of the result is asserted *by
name*; each inlined answer is compared with the method it was copied
from.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.base import AckEvent, CongestionControl
from repro.cc.registry import _REGISTRY, factory, get_class
from repro.net.packet import Packet, ack_packet, data_packet
from repro.sim.engine import Simulator
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import SegmentInfo, TcpSender

from tests.conftest import count_calls
from tests.tcp.conftest import StubHost


def fields(obj):
    return {name: getattr(obj, name) for name in type(obj).__slots__}


def make_sender(sim, cca="reno", total_bytes=10**9):
    host = StubHost(sim, name="sending-host", mtu_bytes=1040)  # MSS 1000
    sender = TcpSender(
        sim, host, flow_id=77, dst="receiving-host", cca_factory=factory(cca),
        total_bytes=total_bytes,
    )
    return host, sender


# -- positional construction -----------------------------------------


@pytest.mark.parametrize("recovery_point", [None, 5000])
def test_make_event_puts_every_source_in_its_field(sim, recovery_point):
    _host, sender = make_sender(sim)
    sender._in_flight = 4004
    sender._recovery_point = recovery_point
    packet = Packet(
        77, "receiving-host", "sending-host", is_ack=True, ack_seq=2002,
        ecn_echo="ecn-echo", ecn_marked_bytes=7007,
        int_qlen_bytes=10010, int_tx_bytes=11011.5,
        int_timestamp=12012.25, int_link_rate_bps=13013.75,
    )
    event = sender._make_event(packet, 1001, 3003.5, 8008.5, "app-limited")
    assert type(event) is AckEvent
    assert fields(event) == {
        "newly_acked_bytes": 1001,
        "cumulative_ack": 2002,
        "rtt_sample": 3003.5,
        "flight_bytes": 4004,
        "in_recovery": recovery_point is not None,
        "ecn_echo": "ecn-echo",
        "ecn_marked_bytes": 7007,
        "delivery_rate_bps": 8008.5,
        "is_app_limited": "app-limited",
        "int_qlen_bytes": 10010,
        "int_tx_bytes": 11011.5,
        "int_timestamp": 12012.25,
        "int_link_rate_bps": 13013.75,
    }


@pytest.mark.parametrize(
    "size, app_bytes, app_limited",
    [(1000, 9000, False), (1000, 4000, True), (400, 9000, True)],
    ids=["full-more-to-come", "full-last", "short"],
)
def test_transmit_new_puts_every_source_in_its_field(
    sim, size, app_bytes, app_limited
):
    host, sender = make_sender(sim)
    sim.run(until=0.125)
    sender.snd_nxt = sender.snd_una = 3000
    sender.app_bytes = app_bytes
    sender.delivered_bytes = 2500
    sender._transmit_new(size)
    (seg,) = sender._segments.values()
    assert type(seg) is SegmentInfo
    assert fields(seg) == {
        "seq": 3000,
        "length": size,
        "end_seq": 3000 + size,
        "first_sent_time": 0.125,
        "sent_time": 0.125,
        "delivered_at_send": 2500,
        "retransmitted": False,
        "sacked": False,
        "in_flight": True,
        "app_limited": app_limited,
    }
    assert sender._segments == {3000: seg} and list(sender._order) == [3000]
    assert (sender.snd_nxt, sender._in_flight) == (3000 + size, size)
    assert [p.seq for p in host.outbox] == [3000]


# the priority is the flow's bytes left, and none once all are acknowledged
@pytest.mark.parametrize("total_bytes, priority", [(9000, 6500), (2000, 0)])
def test_send_packet_puts_every_source_in_its_field(sim, total_bytes, priority):
    host, sender = make_sender(sim, total_bytes=total_bytes)
    sender.ecn_capable = "ecn-capable"
    sender.snd_una = 2500
    sim.run(until=0.25)
    seg = SegmentInfo(3000, 600, 0.0, 0.0, 0)
    sender._send_packet(seg, "retransmitted")
    (packet,) = host.outbox
    assert fields(packet) == {
        "flow_id": 77,
        "src": "sending-host",
        "dst": "receiving-host",
        "seq": 3000,
        "payload_bytes": 600,
        "end_seq": 3600,
        "size_bytes": 640,
        "wire_bytes": 678,
        "is_ack": False,
        "ack_seq": 0,
        "sacks": (),
        "ecn_capable": "ecn-capable",
        "ecn_marked": False,
        "ecn_echo": False,
        "ecn_marked_bytes": 0,
        "retransmitted": "retransmitted",
        "rwnd_bytes": None,
        "int_qlen_bytes": None,
        "int_tx_bytes": None,
        "int_timestamp": None,
        "int_link_rate_bps": None,
        "priority": priority,
        "sent_time": 0.25,
        "echo_time": None,
    }
    assert fields(packet) == fields(Packet(
        77, "sending-host", "receiving-host", 3000, 600,
        ecn_capable="ecn-capable", retransmitted="retransmitted",
        priority=priority, sent_time=0.25,
    ))


@pytest.mark.parametrize("buffered", [False, True])
def test_send_ack_puts_every_source_in_its_field(sim, buffered):
    host = StubHost(sim, name="receiving-host")
    receiver = TcpReceiver(
        sim, host, flow_id=77, peer="sending-host", expected_bytes=10**9
    )
    sim.run(until=0.5)
    receiver.rcv_nxt = 2000
    receiver.bytes_received = 2600 if buffered else 2000
    if buffered:
        receiver.received.add(3000, 3600)
    receiver._ce_state = "ce-state"
    receiver._marked_bytes_pending = 5005
    receiver._pending_echo_time = 0.375
    receiver._unacked_segments = 1
    rwnd = receiver.advertised_rwnd
    receiver._send_ack()
    (ack,) = host.outbox
    assert fields(ack) == {
        "flow_id": 77,
        "src": "receiving-host",
        "dst": "sending-host",
        "seq": 0,
        "payload_bytes": 0,
        "end_seq": 0,
        "size_bytes": 40,
        "wire_bytes": 78,
        "is_ack": True,
        "ack_seq": 2000,
        "sacks": ((3000, 3600),) if buffered else (),
        "ecn_capable": False,
        "ecn_marked": False,
        "ecn_echo": "ce-state",
        "ecn_marked_bytes": 5005,
        "retransmitted": False,
        "rwnd_bytes": rwnd,
        "int_qlen_bytes": None,
        "int_tx_bytes": None,
        "int_timestamp": None,
        "int_link_rate_bps": None,
        "priority": None,
        "sent_time": 0.5,
        "echo_time": 0.375,
    }
    assert fields(ack) == fields(Packet(
        77, "receiving-host", "sending-host", is_ack=True, ack_seq=2000,
        sacks=((3000, 3600),) if buffered else (), ecn_echo="ce-state",
        ecn_marked_bytes=5005, rwnd_bytes=rwnd, sent_time=0.5,
        echo_time=0.375,
    ))
    assert rwnd == 64 * 1024 + receiver.bytes_received


@pytest.mark.parametrize("kind", ["data", "ack"])
def test_a_kind_constructor_builds_the_generic_packet_of_its_fields(kind):
    """``data_packet`` and ``ack_packet`` set every slot, the ones their
    kind leaves at :class:`Packet`'s defaults included."""
    if kind == "data":
        built = data_packet(5, "a", "b", 7000, 1200, True, True, 42)
        generic = Packet(
            5, "a", "b", 7000, 1200,
            ecn_capable=True, retransmitted=True, priority=42,
        )
    else:
        built = ack_packet(5, "b", "a", 8200, ((9000, 9500),), True, 300, 0.5, 1)
        generic = Packet(
            5, "b", "a", is_ack=True, ack_seq=8200, sacks=((9000, 9500),),
            ecn_echo=True, ecn_marked_bytes=300, echo_time=0.5, rwnd_bytes=1,
        )
    assert type(built) is Packet
    assert fields(built) == fields(generic)


# -- a CCA that never paces is never asked ------------------------------


def overrides_pacing_rate(cls):
    for klass in cls.__mro__:
        if klass is CongestionControl:
            return False
        if "pacing_rate_bps" in vars(klass):
            return True
    raise AssertionError(f"{cls} is not a CongestionControl")


def test_paces_is_whether_the_cca_class_has_its_own_pacing_rate(sim):
    pacers = set()
    for flow_id, name in enumerate(sorted(_REGISTRY)):
        host = StubHost(sim, name=f"host-{name}")
        sender = TcpSender(
            sim, host, flow_id=flow_id, dst="peer", cca_factory=factory(name),
            total_bytes=100_000,
        )
        assert sender._paces == overrides_pacing_rate(get_class(name)), name
        if sender._paces:
            pacers.add(name)
    assert pacers == {"bbr", "bbr2", "dcqcn", "hpcc"}


class AskedPacer(CongestionControl):
    """A window-based CCA in all but one respect: it answers for itself
    when asked for a pacing rate (and says "unpaced")."""

    name = "asked"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.asked = 0

    def pacing_rate_bps(self):
        self.asked += 1
        return None


def test_a_cca_with_its_own_pacing_rate_is_asked_once_per_send_opportunity(sim):
    host = StubHost(sim, mtu_bytes=1040)  # MSS 1000
    sender = TcpSender(
        sim, host, flow_id=1, dst="peer", cca_factory=AskedPacer,
        total_bytes=25_000,
    )
    assert sender._paces
    sender.start()
    # the initial window: ten opportunities, ten segments; the eleventh
    # stops on the window before anybody is asked
    assert (len(host.outbox), sender.cca.asked) == (10, 10)
    sender.handle_packet(Packet(1, "peer", "stub", is_ack=True, ack_seq=2000))
    assert (len(host.outbox), sender.cca.asked) == (14, 14)


def test_a_window_based_cca_costs_no_pacing_frame(sim):
    host, sender = make_sender(sim, cca="reno", total_bytes=25_000)
    assert not sender._paces

    def drive():
        sender.start()
        sender.handle_packet(
            Packet(77, "receiving-host", "sending-host", is_ack=True, ack_seq=2000)
        )

    _, calls = count_calls(drive)
    assert calls[TcpSender._send_packet.__code__] == 14
    assert TcpSender._pacing_gate.__code__ not in calls
    assert CongestionControl.pacing_rate_bps.__code__ not in calls
    assert sender._pacing_rate is None and sender._pacing_next == 0.0


# -- the window test written out in _try_send ---------------------------

WINDOWS = st.one_of(
    st.integers(0, 30_000),
    st.floats(0, 30_000),
    st.sampled_from([math.inf, math.nan]),
)


@given(
    in_flight=st.integers(0, 20_000),
    cwnd=WINDOWS,
    rwnd=st.integers(0, 30_000),
    size=st.integers(1, 1000),
)
@settings(max_examples=300, deadline=None)
def test_new_data_is_sent_exactly_when_cwnd_allows(in_flight, cwnd, rwnd, size):
    sim = Simulator()
    host, sender = make_sender(sim)
    sender.app_bytes = 0  # nothing written: start sends nothing
    sender.start()
    sender._in_flight = in_flight
    sender.cca.cwnd = cwnd
    sender.rwnd_bytes = rwnd
    allowed = sender._cwnd_allows(size)
    sender.write(size)  # one segment's worth: one trip round _try_send
    assert [p.payload_bytes for p in host.outbox] == ([size] if allowed else [])
