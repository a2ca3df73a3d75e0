"""TCP-layer test helpers: a stub host capturing outbound packets."""

from __future__ import annotations

import pytest

from repro.net.host import Host


class StubHost(Host):
    """A Host that records sends instead of using a NIC."""

    def __init__(self, sim, name="stub"):
        super().__init__(sim, name)
        self.outbox = []
        self.sends = 0

    def send(self, packet):
        packet.sent_time = self.sim.now
        self.sends += 1
        if packet.retransmitted:
            self.counters.add("retransmissions")
        self.outbox.append(packet)
        return True

    def pop_all(self):
        out, self.outbox = self.outbox, []
        return out

    @property
    def mtu_bytes(self):
        return 1500


@pytest.fixture
def stub_host(sim):
    return StubHost(sim)
