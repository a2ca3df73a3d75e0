"""The content-addressed result cache: hits, misses, invalidation.

A cache hit must be indistinguishable from re-running the simulation —
full dataclass equality, power/throughput series included — and the key
must move when (and only when) the scenario spec, seed, or schema
version does.
"""

import dataclasses
import json
import threading
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.harness.cache import (
    SCHEMA_VERSION,
    ResultCache,
    compute_key,
    ensure_cache,
    measurement_from_dict,
    measurement_to_dict,
)
from repro.harness.executor import WorkItem, run_work_items
from repro.harness.experiment import FabricScenario, FlowSpec, Scenario
from repro.harness.runner import RunMeasurement, run_once, run_repeated
from repro.obs.journal import read_journal
from repro.obs.observer import TracingObserver
from repro.units import msec

SIZE = 400_000


def scenario(name="cache", **overrides):
    defaults = dict(name=name, flows=[FlowSpec(SIZE)], packages=1)
    defaults.update(overrides)
    return Scenario(**defaults)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestKeys:
    def test_equal_specs_share_a_key(self):
        assert compute_key(scenario(), 3) == compute_key(scenario(), 3)

    def test_seed_changes_key(self):
        assert compute_key(scenario(), 0) != compute_key(scenario(), 1)

    def test_any_field_change_moves_key(self):
        base = compute_key(scenario(), 0)
        assert compute_key(scenario(mtu_bytes=1500), 0) != base
        assert compute_key(scenario(background_load=0.5), 0) != base
        assert (
            compute_key(scenario(flows=[FlowSpec(SIZE, cca="bbr")]), 0) != base
        )

    def test_schema_version_moves_key(self):
        assert compute_key(scenario(), 0, schema_version=1) != compute_key(
            scenario(), 0, schema_version=2
        )

    def test_cache_key_is_order_stable(self):
        # json with sort_keys: field declaration order cannot leak in.
        s = scenario()
        assert s.cache_key() == scenario().cache_key()
        assert '"mtu_bytes"' in s.cache_key()


def golden_corpus():
    """(scenario, seed) pairs that between them use every kind of field
    value a key is built from: nested ``cca_kwargs``, serialized
    chains, None-valued overrides, a policy, ``offered_load``, and
    both scenario kinds.

    The two ``*_alias`` entries were first spelled with the retired
    policy name ``fsti``; a key holds the canonical name, so spelling
    them ``serialized`` keeps the key they were pinned under."""
    aliased = Scenario(
        "golden-alias",
        flows=[FlowSpec(400_000), FlowSpec(400_000)],
        policy="serialized",
    )
    fabric_aliased = FabricScenario(
        "golden-fabric-alias", policy="serialized", n_flows=50
    )
    return {
        "plain": (
            Scenario("golden-plain", flows=[FlowSpec(400_000)], packages=1),
            0,
        ),
        "nested_cca_kwargs": (
            Scenario(
                "golden-kwargs",
                flows=[
                    FlowSpec(
                        1_000_000,
                        cca="baseline",
                        cca_kwargs={"window_segments": 64},
                    ),
                    FlowSpec(
                        2_000_000,
                        cca="bbr2",
                        cca_kwargs={
                            "alpha_quality": False,
                            "knobs": {
                                "gains": [1.25, 0.75],
                                "deep": {"x": None},
                            },
                        },
                    ),
                ],
                mtu_bytes=1500,
                policy="serialized",
            ),
            7,
        ),
        "serialized_chain": (
            Scenario(
                "golden-chain",
                flows=[
                    FlowSpec(500_000, target_rate_bps=2.5e9, uncap_after=1),
                    FlowSpec(500_000, cca="reno"),
                    FlowSpec(
                        250_000,
                        cca="dctcp",
                        start_time_s=0.001,
                        deadline_s=0.5,
                    ),
                ],
                background_load=0.25,
                probe_interval_s=0.005,
                buffer_bytes=200_000,
                ecn_threshold_bytes=None,
                bottleneck_discipline="priority",
                int_telemetry=True,
                policy="serialized",
            ),
            3,
        ),
        "policy_alias": (aliased, 1),
        "offered_load": (
            Scenario(
                "golden-load",
                flows=[FlowSpec(300_000), FlowSpec(700_000, cca="bbr")],
                policy="load-adaptive",
                offered_load=0.75,
            ),
            2,
        ),
        "fabric": (FabricScenario("golden-fabric", n_flows=200, mix="rpc"), 0),
        "fabric_fat_tree": (
            FabricScenario("golden-fabric-fat-tree", cca="dcqcn", topology="fat-tree"),
            5,
        ),
        "fabric_policy_alias": (fabric_aliased, 9),
    }


#: ``compute_key`` of the corpus at schema 6, every spec field keyed. A
#: cache directory outlives the code that filled it, and a moved key turns
#: each of its entries into a miss: these move only with a deliberate
#: change of the canonical form or of ``SCHEMA_VERSION``.
GOLDEN_KEYS = {
    "plain": "7301dc2c17e194bd383339a4186d3b0e27aa0889ae0602ea45804f2ff4c149fe",
    "nested_cca_kwargs": "26525f6db1a4f058204a711f73bbd127f3f77d23ce3be1dc01d6f92a9c41405c",
    "serialized_chain": "ac7ea1d73a3ae082b8338316df77fd6299fddf2afabc55e0a4c43ea10df5a41a",
    "policy_alias": "22f43f6b6e612f58ec2328bcce3f9ff34ea2dcf32b6e36b6ec566a7b66bb3dda",
    "offered_load": "a1893d58689cc30d68cfc1c91b04f7c62dee6a1cbcdb0857d93e419e471a1803",
    "fabric": "3bb83b783fb564d4c504ab1be07cc69bd6e24c59eea2845ae5829d399d66caeb",
    "fabric_fat_tree": "250c554f5b00d7bdce0c1b1c2bb12c9c6d1a5eab3f9c13db473ca8a0669a60e9",
    "fabric_policy_alias": "a680dfaf47482855d9c6fd14339dde95f6025952d8f47e675b859d08e14de5c6",
}


class TestGoldenKeys:
    def test_keys_are_the_bytes_an_existing_cache_was_filled_under(self):
        assert SCHEMA_VERSION == 6
        assert {
            name: compute_key(scenario, seed)
            for name, (scenario, seed) in golden_corpus().items()
        } == GOLDEN_KEYS

    @pytest.mark.parametrize("name", ["nested_cca_kwargs"])
    def test_canonical_dict_does_not_alias_the_callers_kwargs(self, name):
        def scramble(value):
            if isinstance(value, (dict, list)):
                for inner in value.values() if isinstance(value, dict) else value:
                    scramble(inner)
                value.clear()

        spec, seed = golden_corpus()[name]
        scramble(spec.canonical_dict())
        assert compute_key(spec, seed) == GOLDEN_KEYS[name]


class TestRoundTrip:
    def test_measurement_survives_json_exactly(self):
        # probes on, multi-flow: exercises every serialized field
        m = run_once(
            scenario(
                flows=[FlowSpec(SIZE), FlowSpec(SIZE)],
                probe_interval_s=msec(5.0),
                packages=2,
            ),
            seed=11,
        )
        assert measurement_from_dict(measurement_to_dict(m)) == m

    def test_codec_writes_exactly_the_measurement_fields(self):
        # a field the codec drops is lost on every hit; one it keeps
        # after the dataclass dropped it fails every load
        m = run_once(scenario(), seed=0)
        assert set(measurement_to_dict(m)) == {
            field.name for field in dataclasses.fields(RunMeasurement)
        }

    def test_get_returns_equal_measurement(self, cache):
        s = scenario()
        m = run_once(s, seed=2)
        cache.save(cache.key(s, 2), m)
        assert cache.load(cache.key(s, 2)) == m

    def test_counters_survive_the_round_trip_losslessly(self, cache):
        # The journal's run_finished events read counters(); a cached
        # replay must export the exact same values.
        s = scenario()
        m = run_once(s, seed=4)
        cache.save(cache.key(s, 4), m)
        replayed = cache.load(cache.key(s, 4))
        assert replayed.counters() == m.counters()


class TestHitMiss:
    def test_empty_cache_misses(self, cache):
        assert cache.load(cache.key(scenario(), 0)) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_put_then_hit(self, cache):
        s = scenario()
        cache.save(cache.key(s, 0), run_once(s, seed=0))
        assert cache.load(cache.key(s, 0)) is not None
        assert cache.hits == 1
        assert len(cache) == 1

    def test_run_repeated_warm_rerun_never_simulates(self, cache, monkeypatch):
        s = scenario()
        cold = run_repeated(s, repetitions=2, base_seed=0, cache=cache)
        assert cache.misses == 2

        # Any simulation attempt on the warm rerun is a test failure.
        import repro.harness.executor as executor_module

        def boom(*args, **kwargs):
            raise AssertionError("warm rerun hit the simulator")

        monkeypatch.setattr(executor_module, "run_once", boom)
        warm = run_repeated(s, repetitions=2, base_seed=0, cache=cache)
        assert warm.runs == cold.runs

    def test_schema_bump_invalidates(self, cache, tmp_path):
        s = scenario()
        cache.save(cache.key(s, 0), run_once(s, seed=0))
        bumped = ResultCache(tmp_path / "cache", schema_version=SCHEMA_VERSION + 1)
        assert bumped.load(bumped.key(s, 0)) is None

    def test_schema_4_entry_with_power_series_is_a_miss(self, cache):
        # an entry a schema-4 build left in the same directory, power
        # series included: the current store neither reads nor trusts
        # it, and the item is simulated afresh
        s = scenario()
        fresh = run_once(s, seed=0)
        old = measurement_to_dict(fresh)
        old["power_series"] = [
            {"name": "sender-pkg0-power", "times": [0.001], "values": [35.0]}
        ]
        old_path = cache.path(compute_key(s, 0, schema_version=4))
        old_path.parent.mkdir(parents=True, exist_ok=True)
        old_path.write_text(json.dumps(old), encoding="utf-8")
        result = run_repeated(s, repetitions=1, base_seed=0, cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        assert result.runs == [fresh]
        assert cache.path(cache.key(s, 0)).exists() and old_path.exists()
        assert "power_series" not in json.loads(
            cache.path(cache.key(s, 0)).read_text(encoding="utf-8")
        )

    def test_schema_5_entry_without_components_is_a_miss(self, cache):
        # an entry a schema-5 build left in the same directory, with no
        # energy split: the schema-6 store neither reads nor trusts it,
        # and the item is simulated afresh
        s = scenario()
        fresh = run_once(s, seed=0)
        old = measurement_to_dict(fresh)
        del old["energy_components_j"]
        old_path = cache.path(compute_key(s, 0, schema_version=5))
        old_path.parent.mkdir(parents=True, exist_ok=True)
        old_path.write_text(json.dumps(old), encoding="utf-8")
        result = run_repeated(s, repetitions=1, base_seed=0, cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        assert result.runs == [fresh]
        assert fresh.energy_components_j
        assert "energy_components_j" in json.loads(
            cache.path(cache.key(s, 0)).read_text(encoding="utf-8")
        )

    def test_corrupt_entry_is_a_miss(self, cache):
        s = scenario()
        path = cache.save(cache.key(s, 0), run_once(s, seed=0))
        path.write_text("{not json", encoding="utf-8")
        assert cache.load(cache.key(s, 0)) is None

    def test_interrupt_during_a_read_propagates(self, cache, monkeypatch):
        # Ctrl-C while an entry is read stops the sweep: it is not an
        # unreadable entry, so it is neither a miss nor a hit
        s = scenario()
        cache.save(cache.key(s, 0), run_once(s, seed=0))

        def interrupted(path, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(Path, "read_text", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cache.load(cache.key(s, 0))
        assert (cache.hits, cache.misses) == (0, 0)

    def test_clear_removes_entries(self, cache):
        s = scenario()
        cache.save(cache.key(s, 0), run_once(s, seed=0))
        assert cache.clear() == 1
        assert len(cache) == 0


class TestSharedDirectory:
    """Two sweeps on one cache directory (two stores, one root)."""

    def test_interleaved_puts_of_one_key_both_land(
        self, cache, tmp_path, monkeypatch
    ):
        # writer A has written its temp file; before it renames, writer
        # B stores the same item start to finish
        s = scenario()
        measurement = run_once(s, seed=0)
        other = ResultCache(tmp_path / "cache")
        rename = Path.replace
        interleaved = []

        def replace(tmp, target):
            if not interleaved:
                interleaved.append(tmp.name)
                other.save(other.key(s, 0), measurement)
            return rename(tmp, target)

        monkeypatch.setattr(Path, "replace", replace)
        path = cache.save(cache.key(s, 0), measurement)
        assert interleaved and path.exists()
        assert cache.load(cache.key(s, 0)) == other.load(other.key(s, 0)) == measurement
        # no temp file is left, and none ever looked like an entry
        assert [entry.name for entry in path.parent.iterdir()] == [path.name]
        assert not interleaved[0].endswith(".json")
        assert len(cache) == 1 and cache.clear() == 1

    def test_concurrent_writers_of_one_key_never_collide(self, tmp_path):
        s = scenario()
        measurement = run_once(s, seed=0)
        errors = []

        def write():
            store = ResultCache(tmp_path / "cache")
            try:
                for _ in range(25):
                    store.save(store.key(s, 0), measurement)
            except Exception as exc:  # the assertion below reports it
                errors.append(exc)

        writers = [threading.Thread(target=write) for _ in range(8)]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
        assert not any(writer.is_alive() for writer in writers)
        assert errors == []
        store = ResultCache(tmp_path / "cache")
        assert store.load(store.key(s, 0)) == measurement
        entry = store.path(store.key(s, 0))
        assert [path.name for path in entry.parent.iterdir()] == [entry.name]


class TestOneKeyPerItem:
    @pytest.mark.parametrize("jobs", (None, 2))
    def test_every_journal_event_of_an_item_names_the_stores_key(
        self, tmp_path, jobs
    ):
        # a non-default schema: the journal used to say the store's key
        # in cache_miss and the default-schema key in run_started /
        # run_finished
        store = ResultCache(tmp_path / "cache", schema_version=SCHEMA_VERSION + 95)
        s = scenario()
        with TracingObserver(tmp_path / "trace") as obs:
            run_work_items(
                [WorkItem(s, 0), WorkItem(s, 1)],
                jobs=jobs, cache=store, observer=obs,
            )
        keyed = {}
        for event in read_journal(tmp_path / "trace"):
            if "cache_key" in event:
                keyed.setdefault(event["seed"], {})[event["event"]] = event["cache_key"]
        for seed in (0, 1):
            assert sorted(keyed[seed]) == ["cache_miss", "run_finished", "run_started"]
            assert set(keyed[seed].values()) == {store.key(s, seed)}
            assert store.path(store.key(s, seed)).exists()

    def test_traced_item_without_a_store_keeps_the_default_key(self, tmp_path):
        s = scenario()
        with TracingObserver(tmp_path / "trace") as obs:
            run_work_items([WorkItem(s, 0)], observer=obs)
        keys = {
            event["cache_key"]
            for event in read_journal(tmp_path / "trace")
            if "cache_key" in event
        }
        assert keys == {compute_key(s, 0)}


class TestEnsureCache:
    def test_path_string_coerces(self, tmp_path):
        store = ensure_cache(str(tmp_path / "c"))
        assert isinstance(store, ResultCache)

    def test_none_passes_through(self):
        assert ensure_cache(None) is None

    def test_instance_passes_through(self, cache):
        assert ensure_cache(cache) is cache

    def test_garbage_rejected(self):
        with pytest.raises(ExperimentError, match="cache must be"):
            ensure_cache(42)


class TestCacheWithParallelism:
    def test_cache_and_jobs_compose_bit_identically(self, tmp_path):
        s = scenario()
        plain = run_repeated(s, repetitions=3, base_seed=1)
        cached_parallel = run_repeated(
            s, repetitions=3, base_seed=1, jobs=3, cache=tmp_path / "c"
        )
        rehydrated = run_repeated(
            s, repetitions=3, base_seed=1, cache=tmp_path / "c"
        )
        assert plain.runs == cached_parallel.runs == rehydrated.runs

    def test_partial_warm_cache_fills_only_misses(self, tmp_path):
        s = scenario()
        cache = ResultCache(tmp_path / "c")
        run_repeated(s, repetitions=1, base_seed=0, cache=cache)
        assert len(cache) == 1
        result = run_repeated(s, repetitions=3, base_seed=0, cache=cache)
        assert len(cache) == 3
        assert [r.seed for r in result.runs] == [0, 1, 2]
