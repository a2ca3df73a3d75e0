"""Tests for per-mechanism energy attribution."""

import pytest

from repro.energy import calibration as cal
from repro.energy.power_model import IntervalActivity, PowerModel


def reference_activity(throughput_gbps, duration=1.0, retx=0):
    wire_bytes = int(throughput_gbps * 1e9 * duration / 8)
    data_pkts = cal.reference_packet_rate(throughput_gbps) * duration
    return IntervalActivity(
        duration_s=duration,
        wire_bytes=wire_bytes,
        packet_events=int(data_pkts * cal.REF_EVENTS_PER_DATA_PACKET),
        cc_cost_units=data_pkts
        * cal.REF_ACKS_PER_PACKET
        * cal.REF_CC_UNITS_PER_ACK,
        retransmissions=retx,
    )


class TestComponents:
    def test_components_sum_to_power(self):
        model = PowerModel()
        activity = reference_activity(5.0, retx=1000)
        components = model.power_components(activity)
        assert sum(components.values()) == pytest.approx(
            model.power_w(activity)
        )

    def test_reference_config_has_zero_excess(self):
        model = PowerModel()
        components = model.power_components(reference_activity(5.0))
        assert components["packet_excess"] == pytest.approx(0.0, abs=0.05)
        assert components["cc_compute"] == pytest.approx(0.0, abs=0.05)
        assert components["retransmissions"] == 0.0

    def test_idle_component_constant(self):
        model = PowerModel()
        for t in (0.0, 5.0, 10.0):
            components = model.power_components(reference_activity(t))
            assert components["idle"] == cal.P_IDLE_W

    def test_retransmissions_attributed(self):
        model = PowerModel()
        components = model.power_components(
            reference_activity(5.0, retx=100_000)
        )
        assert components["retransmissions"] == pytest.approx(
            cal.BETA_RETX_W_PER_RPS * 100_000
        )

    def test_component_keys_stable(self):
        model = PowerModel()
        components = model.power_components(reference_activity(1.0))
        assert tuple(components) == PowerModel.COMPONENT_KEYS

    def test_floor_adjustment_activates(self):
        model = PowerModel()
        credit = IntervalActivity(duration_s=1.0, cc_cost_units=-1e9)
        components = model.power_components(credit)
        assert components["floor_adjustment"] > 0
        assert sum(components.values()) == pytest.approx(cal.P_IDLE_W)


class TestMechanismExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.figures.mechanisms import run_mechanism_breakdown

        return run_mechanism_breakdown(
            ccas=("cubic", "baseline", "bbr2"), transfer_bytes=8_000_000
        )

    def test_components_account_for_totals(self, result):
        for row in result.rows:
            assert sum(row.components_j.values()) == pytest.approx(
                row.total_j, rel=0.02
            )

    def test_baseline_pays_for_retransmissions(self, result):
        baseline = result.row("baseline")
        cubic = result.row("cubic")
        assert baseline.components_j["retransmissions"] > 10 * max(
            cubic.components_j["retransmissions"], 1e-6
        )
        assert baseline.components_j["retransmissions"] > 0.01

    def test_bbr2_pays_in_idle_time(self, result):
        """BBR2's overhead is the *duration* of its transfer: the idle
        floor and network terms grow, not a single hot component."""
        bbr2 = result.row("bbr2")
        cubic = result.row("cubic")
        assert bbr2.components_j["idle"] > 1.2 * cubic.components_j["idle"]

    def test_table_renders(self, result):
        table = result.format_table()
        assert "cc_compute" in table and "baseline" in table
