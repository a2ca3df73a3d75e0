"""Per-flow energy attribution: additivity, ledgers, telemetry round-trip.

The load-bearing property is *exact* additivity: attributed joules sum
to the measured total (fleet total for fabric runs) within 1e-9, so the
ledger never invents or loses energy relative to the meter.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.harness.experiment import FabricScenario, FlowSpec, Scenario
from repro.harness.runner import run_once
from repro.obs.attrib import (
    FLOW_ENERGY_CHANNEL,
    IDLE_ENTITY,
    FlowActivity,
    attribute_energy,
    attribute_measurement,
    attribution_from_telemetry,
    measurement_activities,
    record_flow_energy,
    summarize_flow_energy,
    top_energy_flows,
    top_flow_share_percent,
)
from repro.sim.probe import ProbeSink

ADDITIVITY_TOL = 1e-9


class _RecordingSink(ProbeSink):
    enabled = True

    def __init__(self):
        self.samples = []

    def sample(self, time_s, channel, entity, value):
        self.samples.append((time_s, channel, entity, value))


def _activities(raw):
    return [
        FlowActivity(
            entity=f"flow-{i}",
            start_s=min(a, b),
            end_s=max(a, b),
            transferred_bytes=size,
        )
        for i, (a, b, size) in enumerate(raw)
    ]


class TestAdditivity:
    @settings(max_examples=200, deadline=None)
    @given(
        raw=st.lists(
            st.tuples(
                st.floats(0.0, 10.0, allow_nan=False),
                st.floats(0.0, 10.0, allow_nan=False),
                st.integers(0, 10**9),
            ),
            max_size=8,
        ),
        total_j=st.floats(1e-6, 1e6, allow_nan=False),
        duration_s=st.floats(0.01, 100.0, allow_nan=False),
    )
    # zero-byte flows that end after the window: the end clamp's case
    @example(raw=[(0.0, 2.0, 0), (0.0, 1.5, 0)], total_j=528416.9060824735, duration_s=0.01171875)
    def test_ledger_sums_to_total(self, raw, total_j, duration_s):
        ledger = attribute_energy(_activities(raw), total_j, duration_s)
        assert abs(sum(ledger.values()) - total_j) <= ADDITIVITY_TOL

    def test_link_run_sums_to_measured_energy(self):
        scenario = Scenario(
            name="attrib-link",
            flows=[FlowSpec(200_000), FlowSpec(100_000)],
            packages=1,
        )
        measurement = run_once(scenario, seed=0)
        ledger = attribute_measurement(measurement)
        assert abs(
            sum(ledger.values()) - measurement.energy_j
        ) <= ADDITIVITY_TOL

    def test_fabric_run_sums_to_fleet_total(self):
        scenario = FabricScenario(
            name="attrib-fabric",
            cca="dctcp",
            policy="fair",
            n_flows=40,
            mix="rpc",
        )
        measurement = run_once(scenario, seed=0)
        ledger = attribute_measurement(measurement)
        # energy_j is the FleetEnergyReport total (hosts + switches)...
        assert abs(
            measurement.extras["host_energy_j"]
            + measurement.extras["switch_energy_j"]
            - measurement.energy_j
        ) <= ADDITIVITY_TOL
        # ...and the ledger reproduces it exactly
        assert abs(
            sum(ledger.values()) - measurement.energy_j
        ) <= ADDITIVITY_TOL
        assert len(ledger) == 41  # 40 flows + idle


class TestWindows:
    def test_no_flows_attributes_everything_to_idle(self):
        ledger = attribute_energy([], 5.0, 2.0)
        assert ledger == {IDLE_ENTITY: 5.0}

    def test_idle_tail_accrues_to_idle(self):
        flow = FlowActivity("flow-1", 0.0, 1.0, 1000)
        ledger = attribute_energy([flow], 10.0, 2.0)
        assert ledger["flow-1"] == pytest.approx(5.0)
        assert ledger[IDLE_ENTITY] == pytest.approx(5.0)

    def test_concurrent_flows_split_by_rate(self):
        fast = FlowActivity("flow-1", 0.0, 1.0, 3000)
        slow = FlowActivity("flow-2", 0.0, 1.0, 1000)
        ledger = attribute_energy([fast, slow], 4.0, 1.0)
        assert ledger["flow-1"] == pytest.approx(3.0)
        assert ledger["flow-2"] == pytest.approx(1.0)

    def test_serialized_flows_pay_for_their_own_window(self):
        first = FlowActivity("flow-1", 0.0, 1.0, 1000)
        second = FlowActivity("flow-2", 1.0, 3.0, 1000)
        ledger = attribute_energy([first, second], 3.0, 3.0)
        assert ledger["flow-1"] == pytest.approx(1.0)
        assert ledger["flow-2"] == pytest.approx(2.0)
        assert ledger[IDLE_ENTITY] == pytest.approx(0.0)

    def test_zero_duration_raises(self):
        with pytest.raises(ObservabilityError):
            attribute_energy([], 1.0, 0.0)

    def test_duplicate_entities_raise(self):
        dup = [
            FlowActivity("flow-1", 0.0, 1.0, 10),
            FlowActivity("flow-1", 0.5, 2.0, 10),
        ]
        with pytest.raises(ObservabilityError):
            attribute_energy(dup, 1.0, 2.0)


class TestLedgerViews:
    def test_measurement_activities_are_id_ordered(self):
        scenario = Scenario(
            name="attrib-order",
            flows=[FlowSpec(150_000), FlowSpec(150_000)],
            packages=1,
        )
        measurement = run_once(scenario, seed=0)
        activities = measurement_activities(measurement)
        assert [a.entity for a in activities] == ["flow-1", "flow-2"]

    def test_top_energy_flows_ranks_by_joules(self):
        rows = top_energy_flows(
            {"flow-1": 1.0, "flow-2": 3.0, IDLE_ENTITY: 0.0}, top=2
        )
        assert [r[0] for r in rows] == ["flow-2", "flow-1"]
        assert rows[0][2] == pytest.approx(75.0)

    def test_top_flow_share_excludes_idle(self):
        scenario = Scenario(
            name="attrib-share", flows=[FlowSpec(200_000)], packages=1
        )
        measurement = run_once(scenario, seed=0)
        share = top_flow_share_percent(measurement)
        assert 0.0 < share <= 100.0


class TestTelemetryRoundTrip:
    def test_record_flow_energy_emits_one_sample_per_entity(self):
        scenario = Scenario(
            name="attrib-sink",
            flows=[FlowSpec(150_000), FlowSpec(100_000)],
            packages=1,
        )
        measurement = run_once(scenario, seed=0)
        sink = _RecordingSink()
        record_flow_energy(sink, measurement)
        entities = [entity for _, _, entity, _ in sink.samples]
        assert entities == sorted(entities)
        assert set(entities) == {"flow-1", "flow-2", IDLE_ENTITY}
        channels = {channel for _, channel, _, _ in sink.samples}
        assert channels == {FLOW_ENERGY_CHANNEL}
        # stamped with virtual time: the end of the measurement window
        assert all(t == measurement.duration_s for t, _, _, _ in sink.samples)

    def test_disabled_sink_is_untouched(self):
        scenario = Scenario(
            name="attrib-noop", flows=[FlowSpec(150_000)], packages=1
        )
        measurement = run_once(scenario, seed=0)
        record_flow_energy(ProbeSink(), measurement)  # must not raise

    def test_attribution_from_telemetry_rebuilds_ledgers(self):
        records = [
            {
                "scenario": "s",
                "seed": 0,
                "channel": FLOW_ENERGY_CHANNEL,
                "entity": "flow-1",
                "values": [1.5],
            },
            {
                "scenario": "s",
                "seed": 0,
                "channel": FLOW_ENERGY_CHANNEL,
                "entity": IDLE_ENTITY,
                "values": [0.5],
            },
            {
                "scenario": "s",
                "seed": 0,
                "channel": "cwnd_bytes",
                "entity": "flow-1",
                "values": [1.0, 2.0],
            },
        ]
        ledgers = attribution_from_telemetry(records)
        assert ledgers == {("s", 0): {"flow-1": 1.5, IDLE_ENTITY: 0.5}}

    def test_summarize_flow_energy_renders_totals(self):
        records = [
            {
                "scenario": "s",
                "seed": seed,
                "channel": FLOW_ENERGY_CHANNEL,
                "entity": entity,
                "values": [value],
            }
            for seed in (0, 1)
            for entity, value in (("flow-1", 2.0), (IDLE_ENTITY, 1.0))
        ]
        text = summarize_flow_energy(records)
        assert "2 runs" in text
        assert "flow-1" in text and IDLE_ENTITY in text

    def test_summarize_flow_energy_empty_without_attribution(self):
        assert summarize_flow_energy([]) == ""
