"""Parallel execution of independent ``(scenario, seed)`` work items.

Every cell x repetition of the paper's experiment grids is an
independent, seeded simulation — the embarrassingly parallel shape that
lets the CCA x MTU grid scale to hundreds of scenario points. One loop
consumes a :class:`WorkItem` batch's results in submission order, and
``jobs`` picks only the iterator it consumes: the builtin ``map``
(in-process, one item at a time) or a ``concurrent.futures``
``ProcessPoolExecutor``'s ``pool.map`` across worker processes.

The two are *interchangeable by construction*: each item carries its
own seed (derived per-item from the base seed, never from worker or
process state), every item runs on a fresh simulator, and results come
back in submission order. A ``jobs=8`` run is therefore bit-identical
to a serial one — which the determinism tests under ``tests/harness/``
assert.

:func:`run_work_items` is the single entry point the harness and all
figure pipelines share; it also consults the optional result cache
(:mod:`repro.harness.cache`) so only missing items run, and threads an
optional :class:`~repro.obs.observer.Observer` through for tracing.
With tracing on, each worker process appends journal events to its own
file (merged by the coordinator afterwards), so observability never
perturbs result ordering or content.

Failures keep their context: a worker exception is re-raised as
:class:`~repro.errors.ExperimentError` carrying the scenario name, the
seed, and the worker pid — and, when tracing, a ``worker_error``
journal event survives the crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.errors import ExperimentError, SweepAbortedError
from repro.harness.cache import (
    SCHEMA_VERSION,
    ResultCache,
    compute_key,
    ensure_cache,
)
from repro.harness.experiment import AnyScenario
from repro.harness.runner import RunMeasurement, run_once
from repro.obs.journal import ABORT_FILENAME, JOURNAL, perf_clock, worker_id
from repro.obs.observer import (
    NULL_OBSERVER,
    JournalObserver,
    Observer,
    observing,
)
from repro.obs.telemetry import TELEMETRY


@dataclass(frozen=True)
class WorkItem:
    """One independent simulation: a scenario plus its repetition seed."""

    scenario: AnyScenario
    seed: int


#: ``on_result(index, item, measurement)``: called on the coordinator for
#: every finished item of a batch, cache hits first, each with its
#: submission index. It watches and never mutates (the determinism
#: contract); raising :class:`~repro.errors.SweepAbortedError` stops the
#: batch.
ResultHook = Callable[[int, WorkItem, RunMeasurement], None]


def consume_abort_flag(trace_dir: Optional[Path]) -> None:
    """Stop a traced batch whose ``<trace_dir>/abort.requested`` exists.

    The flag is how a process that does not own a sweep stops it (``obs
    watch --abort-on-drift``, a plain ``touch``); the coordinator reads
    it between completions. Its first line is the reason ("abort file
    present" for an empty file), and it is deleted as it is acted on, so
    it stops one batch and never the rerun. ``None`` (an untraced
    batch) checks nothing.
    """
    if trace_dir is None:
        return
    flag = trace_dir / ABORT_FILENAME
    try:
        text = flag.read_text(encoding="utf-8")
    except FileNotFoundError:
        return
    except OSError:
        text = ""  # present but unreadable: still a stop request
    flag.unlink(missing_ok=True)
    lines = text.strip().splitlines()
    raise SweepAbortedError(lines[0] if lines else "abort file present")


def _worker_error(item: WorkItem, exc: Exception) -> ExperimentError:
    """Wrap a worker failure with the context the coordinator loses."""
    return ExperimentError(
        f"work item failed (scenario={item.scenario.name!r}, "
        f"seed={item.seed}, worker pid={worker_id()}): "
        f"{type(exc).__name__}: {exc}"
    )


def run_item_observed(
    item: WorkItem,
    index: int,
    observer: Observer,
    cache_key: Optional[str],
) -> RunMeasurement:
    """Run one item, journaling its lifecycle around :func:`run_once`.

    ``run_started`` / ``run_finished`` events carry the submission
    index, scenario name, seed and content-address; ``run_finished``
    additionally records :meth:`RunMeasurement.summary` plus the
    diagnostic wall time. On failure a ``worker_error`` event is
    journaled before the wrapped :class:`ExperimentError` is raised.

    ``cache_key`` is the address :func:`run_work_items` hashed for the
    item, so every event of one item names the same key; it is ``None``
    only when nothing reads it (no store, tracing off).
    """
    if not observer.enabled:
        try:
            return run_once(item.scenario, seed=item.seed)
        except Exception as exc:
            raise _worker_error(item, exc) from exc
    common = dict(item=index, scenario=item.scenario.name, seed=item.seed)
    observer.emit("run_started", cache_key=cache_key, **common)
    started = perf_clock()
    try:
        measurement = run_once(item.scenario, seed=item.seed, observer=observer)
    except Exception as exc:
        observer.emit(
            "worker_error",
            error=str(exc),
            error_type=type(exc).__name__,
            **common,
        )
        raise _worker_error(item, exc) from exc
    observer.emit(
        "run_finished",
        cache_key=cache_key,
        wall_s=perf_clock() - started,
        **measurement.summary(),
        **common,
    )
    return measurement


#: per-process journal observers, keyed by trace directory — a pool
#: worker opens its ``worker-<pid>.jsonl`` once and appends across items
_WORKER_OBSERVERS: Dict[str, JournalObserver] = {}


def _worker_observer(trace_dir: str, profile: bool) -> JournalObserver:
    observer = _WORKER_OBSERVERS.get(trace_dir)
    if observer is None:
        wid = worker_id()
        profile_path = None
        if profile:
            # cProfile loads only in a worker of a profiled trace
            from repro.obs.profile import PROFILE

            profile_path = PROFILE.worker_path(trace_dir, wid)
        observer = JournalObserver(
            JOURNAL.worker_path(trace_dir, wid),
            worker=wid,
            telemetry_path=TELEMETRY.worker_path(trace_dir, wid),
            profile_path=profile_path,
        )
        _WORKER_OBSERVERS[trace_dir] = observer
    return observer


def _pool_entry(
    item: WorkItem,
    index: int,
    cache_key: Optional[str],
    trace_dir: Optional[str],
    profile: bool,
) -> RunMeasurement:
    """Pool entry point (module-level so the pool can pickle it).

    A traced batch ships its trace directory, and the worker journals
    to its own partial there; ``profile`` mirrors the coordinator's
    observer so a jobs=N profile covers every run.
    """
    observer = (
        NULL_OBSERVER if trace_dir is None else _worker_observer(trace_dir, profile)
    )
    return run_item_observed(item, index, observer, cache_key)


def _run_items(
    items: List[WorkItem],
    indices: List[int],
    keys: Sequence[Optional[str]],
    jobs: int,
    obs: Observer,
    on_result: Optional[ResultHook],
    completed: Dict[int, RunMeasurement],
) -> None:
    """Run ``items`` (submission ``indices``, content ``keys``) in order,
    into ``completed`` keyed by submission index.

    ``jobs`` picks the iterator and nothing else: the builtin ``map``
    runs items in-process; more than one job (and item) maps them over
    a process pool, each item's seed travelling with it, so the
    outcome never depends on which worker ran what. Either way results
    are consumed in submission order as they land, reading the abort
    flag before each and handing each to ``on_result``. ``pool.map``
    submits everything up front, so an abort only skips items that have
    not started yet — finished work is kept. A worker that dies mid-item
    (killed, out of memory) breaks the pool: that ends the batch in an
    :class:`ExperimentError` naming the first item without a result.
    """
    stream: Iterator[RunMeasurement]
    pool = None
    broken: Tuple[Type[BaseException], ...] = ()  # what a broken pool raises
    try:
        if jobs == 1 or len(items) <= 1:
            stream = map(run_item_observed, items, indices, repeat(obs), keys)
        else:
            # the only place that builds a pool: a serial run never imports
            # the concurrent.futures / multiprocessing / logging / socket stack
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            broken = (BrokenProcessPool,)
            pool = ProcessPoolExecutor(max_workers=min(jobs, len(items)))
            trace_dir = None
            if obs.enabled and obs.trace_dir is not None:
                trace_dir = str(obs.trace_dir)
            stream = pool.map(
                _pool_entry,
                items,
                indices,
                keys,
                repeat(trace_dir),
                repeat(obs.profile_enabled),
            )
        for index, item in zip(indices, items):
            consume_abort_flag(obs.trace_dir)
            try:
                completed[index] = measurement = next(stream)
            except broken:
                raise ExperimentError(
                    f"a worker process died before item {index} (scenario "
                    f"{item.scenario.name!r}, seed {item.seed}) finished"
                ) from None
            if on_result is not None:
                on_result(index, item, measurement)
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def run_work_items(
    items: Sequence[WorkItem],
    jobs: Optional[int] = None,
    cache: Union[None, str, Path, ResultCache] = None,
    observer: Union[None, str, Path, Observer] = None,
    on_result: Optional[ResultHook] = None,
) -> List[RunMeasurement]:
    """Execute a batch of work items, cache-aware and order-preserving.

    ``jobs`` (None meaning 1) is the number of worker processes; one
    runs every item in this process. With a cache, stored measurements
    are returned directly and only the misses run (then are stored).
    The result list always lines up index-for-index with ``items``.

    ``observer`` (an :class:`~repro.obs.observer.Observer`, or a trace
    directory it opens and closes) journals the batch: ``batch_started``,
    per-item ``cache_hit``/``cache_miss``, the workers' run events, and
    ``batch_finished``, plus spans around cache I/O. Tracing is purely
    observational — results are bit-identical with it on or off — and
    worker journals are merged even when the batch fails, so crashed
    sweeps keep their evidence.

    A batch stops early one of two ways: ``on_result`` (see
    :data:`ResultHook`) raises :class:`~repro.errors.SweepAbortedError`,
    or a traced batch finds its trace directory's abort flag (see
    :func:`consume_abort_flag`). Either way the batch stores whatever
    finished to the cache, journals ``batch_aborted``, and re-raises the
    error with ``partial`` (every finished measurement, cache hits
    included, keyed by submission index) and ``total`` filled in.
    """
    items = list(items)
    workers = 1 if jobs is None else jobs
    if workers < 1:
        raise ExperimentError(f"need >= 1 worker process, got {jobs}")
    store = ensure_cache(cache)
    with observing(observer) as obs:
        return _run_batch(items, workers, store, obs, on_result)


def _run_batch(
    items: List[WorkItem],
    jobs: int,
    store: Optional[ResultCache],
    obs: Observer,
    on_result: Optional[ResultHook],
) -> List[RunMeasurement]:
    """:func:`run_work_items` with every argument resolved."""
    if obs.enabled:
        obs.emit(
            "batch_started",
            items=len(items),
            backend="serial" if jobs == 1 else "process",
            cache=store is not None,
        )
    # One content address per item, hashed here and nowhere after: the
    # store is addressed by it and every journal event of the item names
    # it, under the store's schema version when there is a store. With
    # neither, nothing reads it and nothing is hashed.
    keys: List[str] = []
    if store is not None or obs.enabled:
        schema = SCHEMA_VERSION if store is None else store.schema_version
        keys = [compute_key(item.scenario, item.seed, schema) for item in items]
    results: List[Optional[RunMeasurement]] = [None] * len(items)
    missing: List[int] = []
    if store is None:
        missing = list(range(len(items)))
    else:
        with obs.span("cache_lookup", items=len(items)):
            for i, item in enumerate(items):
                hit = store.load(keys[i])
                if hit is not None:
                    results[i] = hit
                else:
                    missing.append(i)
                if obs.enabled:
                    obs.emit(
                        "cache_hit" if hit is not None else "cache_miss",
                        item=i,
                        scenario=item.scenario.name,
                        seed=item.seed,
                        cache_key=keys[i],
                    )
    fresh: Dict[int, RunMeasurement] = {}
    try:
        if on_result is not None:
            for i, (item, prior) in enumerate(zip(items, results)):
                if prior is not None:
                    on_result(i, item, prior)
        consume_abort_flag(obs.trace_dir)
        _run_items(
            [items[i] for i in missing],
            missing,
            [keys[i] for i in missing] if keys else [None] * len(missing),
            jobs,
            obs,
            on_result,
            fresh,
        )
    except SweepAbortedError as exc:
        # Keep every finished measurement: store to cache, fold in the
        # hits, and journal the abort before letting it propagate.
        exc.partial = fresh
        if store is not None and exc.partial:
            with obs.span("cache_store", items=len(exc.partial)):
                for i, measurement in exc.partial.items():
                    store.save(keys[i], measurement)
        for i, prior in enumerate(results):
            if prior is not None:
                exc.partial.setdefault(i, prior)
        exc.total = len(items)
        exc.args = (
            f"sweep aborted after {len(exc.partial)}/{exc.total} items: "
            f"{exc.reason}",
        )
        if obs.enabled:
            obs.emit(
                "batch_aborted",
                items=len(items),
                completed=len(exc.partial),
                reason=exc.reason,
            )
        raise
    finally:
        # Merge per-worker journals even on failure: the events leading
        # up to a crash are exactly the ones worth keeping.
        obs.collect_workers()
    if store is not None:
        with obs.span("cache_store", items=len(missing)):
            for i, measurement in fresh.items():
                store.save(keys[i], measurement)
                results[i] = measurement
    else:
        for i, measurement in fresh.items():
            results[i] = measurement
    if obs.enabled:
        obs.emit(
            "batch_finished",
            items=len(items),
            executed=len(missing),
            cache_hits=len(items) - len(missing),
        )
    return [r for r in results if r is not None]
