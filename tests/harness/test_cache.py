"""The content-addressed result cache: hits, misses, invalidation.

A cache hit must be indistinguishable from re-running the simulation —
full dataclass equality, power/throughput series included — and the key
must move when (and only when) the scenario spec, seed, or schema
version does.
"""

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
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import run_once, run_repeated
from repro.obs.journal import read_journal
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

    def test_get_returns_equal_measurement(self, cache):
        s = scenario()
        m = run_once(s, seed=2)
        cache.put(s, 2, m)
        assert cache.get(s, 2) == m

    def test_counters_survive_the_round_trip_losslessly(self, cache):
        # The journal's run_finished events read counters(); a cached
        # replay must export the exact same values.
        s = scenario()
        m = run_once(s, seed=4)
        cache.put(s, 4, m)
        replayed = cache.get(s, 4)
        assert replayed.counters() == m.counters()


class TestHitMiss:
    def test_empty_cache_misses(self, cache):
        assert cache.get(scenario(), 0) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_put_then_hit(self, cache):
        s = scenario()
        cache.put(s, 0, run_once(s, seed=0))
        assert cache.get(s, 0) is not None
        assert cache.hits == 1
        assert len(cache) == 1

    def test_run_repeated_warm_rerun_never_simulates(self, cache, monkeypatch):
        s = scenario()
        cold = run_repeated(s, repetitions=2, base_seed=0, cache=cache)
        assert cache.misses == 2

        # Any simulation attempt on the warm rerun is a test failure.
        import repro.harness.executor as executor_module

        def boom(item):
            raise AssertionError("warm rerun hit the simulator")

        monkeypatch.setattr(executor_module, "execute_item", boom)
        warm = run_repeated(s, repetitions=2, base_seed=0, cache=cache)
        assert warm.runs == cold.runs

    def test_schema_bump_invalidates(self, cache, tmp_path):
        s = scenario()
        cache.put(s, 0, run_once(s, seed=0))
        bumped = ResultCache(tmp_path / "cache", schema_version=SCHEMA_VERSION + 1)
        assert bumped.get(s, 0) is None

    def test_corrupt_entry_is_a_miss(self, cache):
        s = scenario()
        path = cache.put(s, 0, run_once(s, seed=0))
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(s, 0) is None

    def test_clear_removes_entries(self, cache):
        s = scenario()
        cache.put(s, 0, run_once(s, seed=0))
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
                other.put(s, 0, measurement)
            return rename(tmp, target)

        monkeypatch.setattr(Path, "replace", replace)
        path = cache.put(s, 0, measurement)
        assert interleaved and path.exists()
        assert cache.get(s, 0) == other.get(s, 0) == measurement
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
                    store.put(s, 0, measurement)
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
        assert store.get(s, 0) == measurement
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
        run_work_items(
            [WorkItem(s, 0), WorkItem(s, 1)],
            jobs=jobs, cache=store, observer=tmp_path / "trace",
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
        run_work_items([WorkItem(s, 0)], observer=tmp_path / "trace")
        keys = {
            event["cache_key"]
            for event in read_journal(tmp_path / "trace")
            if "cache_key" in event
        }
        assert keys == {compute_key(s, 0)}

    def test_load_and_save_address_the_same_entries_as_get_and_put(self, cache):
        s = scenario()
        measurement = run_once(s, seed=0)
        key = cache.key(s, 0)
        assert cache.load(key) is None
        assert cache.save(key, measurement) == cache.path(key)
        assert cache.get(s, 0) == cache.load(key) == measurement
        assert (cache.hits, cache.misses) == (2, 1)


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
