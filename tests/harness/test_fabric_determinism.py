"""Determinism at fleet scale: 1k-flow fabric sweeps, any backend.

The executor contract — results are a pure function of (scenario,
seed), bit-identical between ``jobs=1`` and ``jobs=4`` — was pinned for
dumbbell scenarios in ``test_trace_determinism.py``. This suite pins it
at the scale the fabric work targets: a 1000-flow leaf-spine sweep over
both classic scheduling policies, including byte-identical telemetry traces and
cache round trips.

The rpc mix keeps each 1k-flow run sub-second (tiny flows, few events)
without reducing the flow count the contract is asserted at.
"""

from repro.harness.cache import ResultCache
from repro.harness.executor import WorkItem, run_work_items
from repro.harness.experiment import FabricScenario
from repro.obs.observer import TracingObserver
from repro.obs.telemetry import read_telemetry


def fabric_scenario(policy, **overrides):
    defaults = dict(
        name=f"det-{policy}",
        cca="dctcp",
        policy=policy,
        n_flows=1000,
        mix="rpc",
        leaves=8,
        spines=2,
        hosts_per_leaf=8,
    )
    defaults.update(overrides)
    return FabricScenario(**defaults)


def sweep_items():
    """Both arms of a 1k-flow sweep, two seeds each."""
    return [
        WorkItem(scenario=fabric_scenario(policy), seed=seed)
        for policy in ("fair", "serialized")
        for seed in (0, 1)
    ]


class TestFabricSweepDeterminism:
    def test_jobs4_bit_identical_to_serial(self):
        serial = run_work_items(sweep_items(), jobs=1)
        pooled = run_work_items(sweep_items(), jobs=4)
        # Dataclass equality covers every field: energy, duration,
        # per-flow results, counters, extras — bit for bit.
        assert pooled == serial

    def test_repeat_runs_are_reproducible(self):
        first = run_work_items(sweep_items()[:1])
        second = run_work_items(sweep_items()[:1])
        assert first == second

    def test_seeds_change_the_measurement(self):
        scenario = fabric_scenario("fair")
        runs = run_work_items(
            [WorkItem(scenario=scenario, seed=s) for s in (0, 1)]
        )
        assert runs[0].energy_j != runs[1].energy_j

    def test_cache_round_trip_preserves_fabric_extras(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        items = sweep_items()[:1]
        fresh = run_work_items(items, cache=cache)
        replayed = run_work_items(items, cache=cache)
        assert replayed == fresh
        assert replayed[0].extras["host_energy_j"] > 0
        assert replayed[0].extras["switch_energy_j"] > 0
        assert replayed[0].extras["fct_p99_s"] > 0


class TestFabricTelemetryDeterminism:
    def test_jobs1_and_jobs4_traces_byte_identical(self, tmp_path):
        for name, jobs in (("serial", 1), ("pool", 4)):
            with TracingObserver(tmp_path / name) as obs:
                run_work_items(sweep_items(), jobs=jobs, observer=obs)
        assert (
            (tmp_path / "serial" / "telemetry.jsonl").read_bytes()
            == (tmp_path / "pool" / "telemetry.jsonl").read_bytes()
        )

    def test_traced_pool_run_equals_untraced_serial(self, tmp_path):
        plain = run_work_items(sweep_items())
        with TracingObserver(tmp_path / "t") as obs:
            traced = run_work_items(sweep_items(), jobs=4, observer=obs)
        assert traced == plain

    def test_fabric_telemetry_has_fleet_channels(self, tmp_path):
        with TracingObserver(tmp_path / "t") as obs:
            run_work_items(sweep_items()[:1], observer=obs)
        records = read_telemetry(tmp_path / "t")
        assert records, "fabric runs must emit telemetry when traced"
        channels = {r["channel"] for r in records}
        assert "power_w" in channels or "queue_depth_bytes" in channels
