"""Unit tests for the packet model."""

import pytest

from repro.net.packet import (
    ETHERNET_OVERHEAD_BYTES,
    TCP_IP_HEADER_BYTES,
    Packet,
    mss_for_mtu,
)


class TestPacketSizes:
    def test_data_packet_size_includes_headers(self):
        p = Packet(flow_id=1, src="a", dst="b", seq=0, payload_bytes=1460)
        assert p.size_bytes == 1460 + TCP_IP_HEADER_BYTES

    def test_wire_bytes_add_ethernet_overhead(self):
        p = Packet(flow_id=1, src="a", dst="b", payload_bytes=100)
        assert p.wire_bytes == p.size_bytes + ETHERNET_OVERHEAD_BYTES

    def test_pure_ack_is_headers_only(self):
        ack = Packet(flow_id=1, src="b", dst="a", is_ack=True, ack_seq=100)
        assert ack.payload_bytes == 0
        assert ack.size_bytes == TCP_IP_HEADER_BYTES

    def test_end_seq(self):
        p = Packet(flow_id=1, src="a", dst="b", seq=1000, payload_bytes=500)
        assert p.end_seq == 1500


class TestDescribe:
    def test_data_description(self):
        p = Packet(flow_id=3, src="a", dst="b", seq=0, payload_bytes=100)
        text = repr(p)
        assert "DATA" in text and "flow=3" in text

    def test_retransmit_flag_shown(self):
        p = Packet(
            flow_id=3, src="a", dst="b", payload_bytes=10, retransmitted=True
        )
        assert "RETX" in repr(p)

    def test_ack_description(self):
        p = Packet(flow_id=3, src="b", dst="a", is_ack=True, ack_seq=42)
        assert "ACK 42" in repr(p)

    def test_sack_and_ece_shown(self):
        p = Packet(
            flow_id=3,
            src="b",
            dst="a",
            is_ack=True,
            ack_seq=42,
            sacks=((100, 200),),
            ecn_echo=True,
        )
        text = repr(p)
        assert "SACK" in text and "ECE" in text


class TestMssForMtu:
    @pytest.mark.parametrize(
        "mtu,expected",
        [(1500, 1460), (3000, 2960), (6000, 5960), (9000, 8960)],
    )
    def test_paper_mtus(self, mtu, expected):
        assert mss_for_mtu(mtu) == expected

    def test_tiny_mtu_rejected(self):
        with pytest.raises(ValueError):
            mss_for_mtu(TCP_IP_HEADER_BYTES)
