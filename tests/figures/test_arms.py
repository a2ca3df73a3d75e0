"""Tests for the one per-arm type and the drivers that fill it.

:class:`~repro.figures.arms.Arms` is every policy figure's lookup and
arithmetic; the routing oracle pins that a driver's arms are exactly
the runs its scenarios give through :func:`run_once`, each scenario
spelled out here the way the figure declares it.
"""

import pytest

from repro.apps.iperf import IperfResult
from repro.apps.workload import generate_workload
from repro.errors import ExperimentError
from repro.figures.arms import Arms
from repro.figures.fig3 import run_fig3
from repro.figures.mptcp import run_mptcp_comparison
from repro.figures.srpt import run_srpt_comparison
from repro.figures.workload_energy import run_workload_energy
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import RepeatedResult, RunMeasurement, run_once
from repro.sim.probe import THROUGHPUT_CHANNEL, TimeSeriesProbeSink
from repro.units import gbps, msec


def _run(energy_j, fcts_s, p50=0.0):
    return RunMeasurement(
        scenario="arm",
        seed=0,
        energy_j=energy_j,
        duration_s=max(fcts_s),
        flow_results=[
            IperfResult(i + 1, "cubic", 1000, 0.0, fct, 0)
            for i, fct in enumerate(fcts_s)
        ],
        bottleneck_drops=0,
        ecn_marks=0,
        extras={"fct_p50_s": p50},
    )


@pytest.fixture
def arms():
    return Arms(
        {
            "fair": RepeatedResult("fair", [_run(10.0, [2.0, 4.0], p50=3.0)]),
            "srpt": RepeatedResult("srpt", [_run(8.0, [1.0, 2.0], p50=1.5)]),
            "serialized": RepeatedResult(
                "serialized", [_run(7.5, [1.0, 3.0]), _run(8.5, [1.0, 3.0])]
            ),
        },
        label="toy",
    )


class TestLookup:
    def test_an_arm_that_did_not_run_names_the_arms_that_did(self):
        arms = Arms({"fair": RepeatedResult("fair", [_run(1.0, [1.0])])}, "fig3")
        with pytest.raises(ExperimentError, match=r"fig3: no arm 'srpt' \(ran: fair\)"):
            arms["srpt"]
        with pytest.raises(ExperimentError, match=r"no arm 'bogus' \(ran: fair\)"):
            arms["bogus"]

    def test_savings_need_the_fair_arm(self):
        arms = Arms({"srpt": RepeatedResult("srpt", [_run(1.0, [1.0])])}, "srpt")
        with pytest.raises(ExperimentError, match=r"srpt: no arm 'fair' \(ran: srpt\)"):
            arms.savings_percent("srpt")

    def test_iterates_arms_in_run_order(self, arms):
        assert list(arms) == ["fair", "srpt", "serialized"]
        assert "srpt" in arms and "pfabric" not in arms
        assert len(arms) == 3


class TestArithmetic:
    def test_savings_against_fair(self, arms):
        assert arms.savings_percent("fair") == 0.0
        assert arms.savings_percent("srpt") == pytest.approx(20.0)
        assert arms.savings_percent("serialized") == pytest.approx(20.0)

    def test_mean_fct_spans_every_flow_of_every_run(self, arms):
        assert arms.mean_fct_s("fair") == 3.0
        assert arms.fcts_s("serialized") == [1.0, 3.0, 1.0, 3.0]
        assert arms.fct_speedup("srpt") == 2.0

    def test_percentiles_average_the_runs_extras(self, arms):
        assert arms.fct_p50_s("srpt") == 1.5
        assert arms.fct_p99_s("srpt") == 0.0  # absent key reads as 0


# -- routing oracle: each arm is run_once(scenario, seed) ----------------

FIELDS = (
    "scenario", "seed", "energy_j", "duration_s", "flow_results",
    "throughput_series", "bottleneck_drops", "ecn_marks",
    "extras",
)


def _assert_routed(arms, scenarios, seed):
    assert list(arms) == list(scenarios)
    for name, scenario in scenarios.items():
        (got,) = arms[name].runs
        expected = run_once(scenario, seed=seed)
        for field in FIELDS:
            assert getattr(got, field) == getattr(expected, field), (name, field)


def test_fig3_panels_route_through_run_once():
    size, half = 400_000, gbps(10.0) / 2
    result = run_fig3(transfer_bytes=size, seed=3)
    scenarios = {
        "fair": Scenario(
            "fig3-fair",
            flows=[FlowSpec(size, cca="cubic", target_rate_bps=half)] * 2,
            probe_interval_s=msec(1.0),
            policy="fair",
        ),
        "serialized": Scenario(
            "fig3-serialized",
            flows=[FlowSpec(size, cca="cubic")] * 2,
            probe_interval_s=msec(1.0),
            policy="serialized",
        ),
    }
    _assert_routed(result.arms, scenarios, seed=3)
    # The panels equal the telemetry stream a collecting sink sees.
    for name, scenario in scenarios.items():
        sink = TimeSeriesProbeSink()
        run_once(scenario, seed=3, probe_sink=sink)
        panel = result.panel(name)
        assert [flow for flow, _ in panel] == [1, 2]
        for flow, series in panel:
            streamed = sink.series(THROUGHPUT_CHANNEL, f"flow-{flow}")
            assert (series.times, series.values) == (streamed.times, streamed.values)


def test_srpt_arms_route_through_run_once():
    batch = (400_000, 800_000)
    result = run_srpt_comparison(batch=batch, seed=2)
    _assert_routed(
        result.arms,
        {
            policy: Scenario(
                f"srpt-{policy}",
                flows=[FlowSpec(400_000), FlowSpec(800_000)],
                packages=2,
                policy=policy,
            )
            for policy in ("fair", "srpt", "serialized")
        },
        seed=2,
    )


def test_workload_arms_route_through_run_once():
    result = run_workload_energy(duration_s=0.005, seed=1)
    workload = generate_workload(
        distribution="web-search", target_load=0.5, duration_s=0.005, seed=1
    )
    assert result.workload.flows == workload.flows
    flows = [
        FlowSpec(f.size_bytes, cca="cubic", start_time_s=f.start_time_s)
        for f in workload.flows
    ]
    _assert_routed(
        result.arms,
        {
            policy: Scenario(
                f"workload-{workload.name}-{policy}",
                flows=flows,
                packages=1,
                time_limit_s=600.0,
                policy=policy,
                offered_load=0.5,
            )
            for policy in ("fair", "srpt")
        },
        seed=1,
    )


def test_mptcp_placements_route_through_run_once():
    result = run_mptcp_comparison(total_bytes=400_000, subflows=2, seed=4)
    _assert_routed(
        result.arms,
        {
            "single": Scenario(
                "mptcp-single", flows=[FlowSpec(400_000)], packages=1
            ),
            "subflows-shared": Scenario(
                "mptcp-shared", flows=[FlowSpec(200_000)] * 2, packages=1
            ),
            "subflows-spread": Scenario(
                "mptcp-spread", flows=[FlowSpec(200_000)] * 2, packages=2
            ),
        },
        seed=4,
    )
