"""Integration tests for the scenario runner."""

import pytest

from repro.apps.iperf import (
    IperfSession,
    drive_until_complete,
    run_until_complete,
)
from repro.energy import calibration as cal
from repro.energy.power_model import PowerModel
from repro.errors import ExperimentError
from repro.harness.experiment import FabricScenario, FlowSpec, Scenario
from repro.harness.runner import _prepare_link, run_once, run_repeated
from repro.net.topology import TestbedConfig, build_testbed
from repro.sim.engine import Simulator
from repro.units import gbps

SIZE = 2_000_000


def single_flow(**kwargs):
    defaults = dict(name="single", flows=[FlowSpec(SIZE)])
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestRunOnce:
    def test_measures_energy_and_duration(self):
        m = run_once(single_flow())
        assert m.energy_j > 0
        assert m.duration_s > 0
        assert m.average_power_w > cal.P_IDLE_W

    def test_flow_results_attached(self):
        m = run_once(single_flow())
        assert len(m.flow_results) == 1
        assert m.flow_results[0].bytes_transferred == SIZE

    def test_deterministic_given_seed(self):
        a = run_once(single_flow(), seed=7)
        b = run_once(single_flow(), seed=7)
        assert a.energy_j == pytest.approx(b.energy_j, rel=1e-12)

    def test_seeds_vary_results(self):
        a = run_once(single_flow(), seed=1)
        b = run_once(single_flow(), seed=2)
        assert a.energy_j != b.energy_j  # power noise differs

    def test_noise_can_be_disabled(self):
        scenario = single_flow(power_noise_sigma=0.0, start_jitter_s=0.0)
        a = run_once(scenario, seed=1)
        b = run_once(scenario, seed=2)
        assert a.energy_j == pytest.approx(b.energy_j, rel=1e-9)

    def test_packages_override(self):
        one = run_once(single_flow(packages=1, power_noise_sigma=0.0))
        two = run_once(single_flow(packages=2, power_noise_sigma=0.0))
        # the second package only adds idle power
        extra = two.energy_j - one.energy_j
        assert extra == pytest.approx(
            cal.P_IDLE_W * two.duration_s, rel=0.05
        )

    def test_background_load_raises_power(self):
        quiet = run_once(single_flow(packages=1))
        loaded = run_once(single_flow(packages=1, background_load=0.5))
        assert loaded.average_power_w > quiet.average_power_w + 35

    def test_chained_flows_serialize(self):
        scenario = Scenario(
            "chain",
            flows=[FlowSpec(SIZE), FlowSpec(SIZE)],
            policy="serialized",
        )
        m = run_once(scenario)
        first, second = m.flow_results
        assert second.start_time >= first.end_time

    def test_rate_cap_respected(self):
        scenario = Scenario(
            "capped",
            flows=[FlowSpec(SIZE, target_rate_bps=gbps(1.0))],
        )
        m = run_once(scenario)
        assert m.flow_results[0].mean_throughput_bps < gbps(1.5)

    def test_probes_recorded_when_requested(self):
        scenario = single_flow(probe_interval_s=1e-3)
        m = run_once(scenario)
        assert len(m.throughput_series) == 1
        series = next(iter(m.throughput_series.values()))
        assert len(series) > 0

    def test_mtu_override(self):
        fast = run_once(single_flow(mtu_bytes=9000))
        slow = run_once(single_flow(mtu_bytes=1500))
        assert slow.duration_s > fast.duration_s


def _link_past_its_limit():
    run_once(
        Scenario("starved-link", flows=[FlowSpec(SIZE), FlowSpec(SIZE)],
                 time_limit_s=1e-6)
    )


def _fabric_past_its_limit():
    run_once(
        FabricScenario(name="starved-fabric", n_flows=20, mix="rpc",
                       leaves=2, spines=1, hosts_per_leaf=4,
                       time_limit_s=1e-7)
    )


def _sessions_past_their_limit():
    testbed = build_testbed(Simulator(), TestbedConfig())
    sessions = [IperfSession(testbed, SIZE, flow_id=7)]
    run_until_complete(testbed, sessions, time_limit_s=1e-6)


def _queue_drains_under_a_dormant_flow():
    testbed = build_testbed(Simulator(), TestbedConfig())
    # never begun: nothing is ever scheduled on its behalf
    dormant = IperfSession(testbed, SIZE, start_time=None, flow_id=3)
    drive_until_complete(testbed.sim, [dormant], 600.0, "dormant")


class TestSenderHosts:
    def test_each_flow_leaves_its_own_host(self):
        scenario = single_flow(
            flows=[FlowSpec(SIZE), FlowSpec(SIZE, sender_host=1)],
            sender_bonded_links=1,
        )
        prepared = _prepare_link(scenario, Simulator(), seed=0)
        senders = prepared.testbed.hosts[:-1]
        assert [s.sender.host for s in prepared.sessions] == senders
        assert [len(host.nic.interfaces) for host in senders] == [1, 1]

    def test_one_cpu_model_per_host_sized_by_its_flows(self):
        flows = [FlowSpec(SIZE)] * 3 + [FlowSpec(SIZE, sender_host=1)]
        prepared = _prepare_link(single_flow(flows=flows), Simulator(), seed=0)
        first, second = prepared.meter.cpu_models
        assert [first.host, second.host] == prepared.testbed.hosts[:-1]
        assert [len(first.packages), len(second.packages)] == [3, 2]
        # a host's flows take its packages in turn
        ids = [s.flow_id for s in prepared.sessions]
        assert [first.package_for(i) for i in ids[:3]] == first.packages
        assert second.package_for(ids[3]) is second.packages[0]

    def test_every_flow_completes(self):
        m = run_once(
            single_flow(flows=[FlowSpec(SIZE, sender_host=h) for h in range(3)])
        )
        assert [r.bytes_transferred for r in m.flow_results] == [SIZE] * 3

    def test_host_numbers_run_without_a_gap(self):
        with pytest.raises(ExperimentError, match="without a gap"):
            single_flow(flows=[FlowSpec(SIZE, sender_host=1)])

    def test_negative_host_rejected(self):
        with pytest.raises(ExperimentError):
            FlowSpec(SIZE, sender_host=-1)


class TestCompletionDriverFailureExits:
    @pytest.mark.parametrize(
        "run, label, reason, stuck",
        [
            (_link_past_its_limit, "starved-link", "time limit",
             "2 of 2 flows incomplete: [1, 2]"),
            (_fabric_past_its_limit, "starved-fabric", "time limit",
             "20 of 20 flows incomplete: [1, 2, 3, 4, 5, 6, 7, 8, "
             "... (+12 more)]"),
            (_sessions_past_their_limit, "iperf", "time limit",
             "1 of 1 flows incomplete: [7]"),
            (_queue_drains_under_a_dormant_flow, "dormant",
             "event queue drained", "1 of 1 flows incomplete: [3]"),
        ],
    )
    def test_names_the_run_and_the_stuck_flows(
        self, run, label, reason, stuck
    ):
        with pytest.raises(ExperimentError) as caught:
            run()
        message = str(caught.value)
        assert message.startswith(f"{label}: {reason}")
        assert message.endswith(stuck)


class _StubFlow:
    """The driver's flow duck type, counting every read of ``complete``."""

    def __init__(self, sim, flow_id, done_at):
        self.sim = sim
        self.flow_id = flow_id
        self.completed_at = None
        self.complete_reads = 0
        self._callbacks = []
        sim.schedule_at(done_at, self._finish)

    @property
    def complete(self):
        self.complete_reads += 1
        return self.completed_at is not None

    def on_complete(self, callback):
        self._callbacks.append(callback)

    def _finish(self):
        self.completed_at = self.sim.now
        for callback in self._callbacks:
            callback(self.sim.now)


def _tick_forever(sim, interval_s):
    def tick():
        sim.schedule(interval_s, tick)

    sim.schedule(interval_s, tick)


class TestCompletionDriverWork:
    """Completion is counted, not polled: the driver's own work is
    O(flows), whatever the number of events the run takes."""

    def test_reads_complete_once_per_flow_whatever_the_event_count(self):
        sim = Simulator()
        flows = [_StubFlow(sim, i + 1, done_at=float(i + 1)) for i in range(50)]
        _tick_forever(sim, 0.02)
        drive_until_complete(sim, flows, 600.0, "stubs")
        assert sim.events_executed >= 1_000
        assert sum(f.complete_reads for f in flows) == 50
        assert sim.now == flows[-1].completed_at == 50.0

    def test_a_second_drive_over_finished_flows_returns_at_once(self):
        sim = Simulator()
        flows = [_StubFlow(sim, i + 1, done_at=1.0) for i in range(3)]
        _tick_forever(sim, 0.25)
        drive_until_complete(sim, flows, 600.0, "stubs")
        executed, now = sim.events_executed, sim.now
        drive_until_complete(sim, flows, 600.0, "stubs")
        assert (sim.events_executed, sim.now) == (executed, now)
        assert sim.pending_events > 0  # there was something left to run

    def test_flows_finished_at_entry_are_not_waited_for(self):
        sim = Simulator()
        early = _StubFlow(sim, 1, done_at=1.0)
        sim.run(until=2.0)
        late = _StubFlow(sim, 2, done_at=3.0)
        drive_until_complete(sim, [early, late], 600.0, "stubs")
        assert sim.now == 3.0

    def test_completion_exactly_at_the_time_limit_succeeds(self):
        sim = Simulator()
        flow = _StubFlow(sim, 1, done_at=5.0)
        drive_until_complete(sim, [flow], 5.0, "edge")
        assert flow.completed_at == sim.now == 5.0

    def test_completion_on_the_first_event_past_the_limit_raises(self):
        sim = Simulator()
        flow = _StubFlow(sim, 1, done_at=5.000001)
        with pytest.raises(ExperimentError, match="edge: time limit of 5.0s"):
            drive_until_complete(sim, [flow], 5.0, "edge")
        # the narrowing: no event later than the limit is dispatched
        assert flow.completed_at is None
        assert sim.events_executed == 0

    def test_a_driver_that_raised_does_not_stop_a_later_run(self):
        sim = Simulator()
        flow = _StubFlow(sim, 1, done_at=7.0)
        with pytest.raises(ExperimentError, match="edge: time limit of 5.0s"):
            drive_until_complete(sim, [flow], 5.0, "edge")
        # someone resumes the simulator for their own purposes: the
        # stuck flow finishing on the way must not end their run
        sim.schedule_at(9.0, lambda: None)
        assert sim.run() == 9.0
        assert flow.completed_at == 7.0

    def test_clock_rests_on_the_last_completion(self):
        # what the energy meter reads as the end of the run
        testbed = build_testbed(Simulator(), TestbedConfig())
        sessions = [
            IperfSession(testbed, SIZE, flow_id=1),
            IperfSession(testbed, SIZE // 4, flow_id=2),
        ]
        _tick_forever(testbed.sim, 1e-3)  # later events stay queued
        results = run_until_complete(testbed, sessions)
        assert testbed.sim.now == max(r.end_time for r in results)


class TestRunMeasurementEdgeCases:
    def test_empty_flow_results_raise_experiment_error(self):
        from repro.harness.runner import RunMeasurement

        empty = RunMeasurement(
            scenario="empty",
            seed=0,
            energy_j=1.0,
            duration_s=1.0,
            flow_results=[],
            bottleneck_drops=0,
            ecn_marks=0,
        )
        with pytest.raises(ExperimentError, match="no flow results"):
            empty.completion_time_s


class TestEnergyComponents:
    """A run's per-mechanism split adds up to what RAPL metered: each
    package's reading is floored to one energy unit, the split is not."""

    def test_link_split_sums_to_the_metered_energy(self):
        # power noise scales every component, and two packages sum
        m = run_once(
            single_flow(flows=[FlowSpec(SIZE), FlowSpec(SIZE)], packages=2),
            seed=3,
        )
        assert tuple(m.energy_components_j) == PowerModel.COMPONENT_KEYS
        assert sum(m.energy_components_j.values()) == pytest.approx(
            m.energy_j, abs=2 * cal.RAPL_ENERGY_UNIT_J
        )

    def test_fabric_split_sums_to_the_host_energy(self):
        scenario = FabricScenario(
            "split-fabric", n_flows=20, mix="rpc",
            leaves=2, spines=1, hosts_per_leaf=4,
        )
        m = run_once(scenario, seed=0)
        hosts = scenario.leaves * scenario.hosts_per_leaf  # 1 package each
        assert sum(m.energy_components_j.values()) == pytest.approx(
            m.extras["host_energy_j"], abs=hosts * cal.RAPL_ENERGY_UNIT_J
        )


class TestCounters:
    def test_enumerates_every_run_counter(self):
        m = run_once(single_flow(), seed=0)
        counters = m.counters()
        assert counters["flows"] == 1.0
        assert counters["bottleneck_drops"] == float(m.bottleneck_drops)
        assert counters["ecn_marks"] == float(m.ecn_marks)
        assert counters["retransmissions"] == float(m.total_retransmissions)
        assert all(isinstance(v, float) for v in counters.values())

    def test_pure_function_of_scenario_and_seed(self):
        assert (
            run_once(single_flow(), seed=5).counters()
            == run_once(single_flow(), seed=5).counters()
        )


class TestRunRepeated:
    def test_aggregates(self):
        result = run_repeated(single_flow(), repetitions=3)
        assert result.n == 3
        assert result.mean_energy_j > 0
        assert result.std_energy_j >= 0
        assert result.mean_power_w > cal.P_IDLE_W

    def test_std_reflects_noise(self):
        result = run_repeated(single_flow(), repetitions=4)
        assert result.std_energy_j > 0

    def test_invalid_repetitions(self):
        with pytest.raises(ExperimentError):
            run_repeated(single_flow(), repetitions=0)
