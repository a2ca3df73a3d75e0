"""TCP-layer test helpers: a stub host capturing outbound packets."""

from __future__ import annotations

import pytest

from repro.net.host import Host


class StubHost(Host):
    """A Host that records sends instead of using a NIC; its MTU sizes
    the segments of a sender on it (MSS = MTU - 40)."""

    def __init__(self, sim, name="stub", mtu_bytes=1500):
        super().__init__(sim, name)
        self.outbox = []
        self.sends = 0
        self.mtu_bytes = mtu_bytes

    def send(self, packet):
        packet.sent_time = self.sim.now
        self.sends += 1
        if packet.retransmitted:
            self.counters["retransmissions"] += 1
        self.outbox.append(packet)
        return True

    def pop_all(self):
        out, self.outbox = self.outbox, []
        return out

    #: shadows ``Host.mtu_bytes``, which asks the NIC
    mtu_bytes = 1500


@pytest.fixture
def stub_host(sim):
    return StubHost(sim)
