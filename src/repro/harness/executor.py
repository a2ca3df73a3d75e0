"""Parallel execution of independent ``(scenario, seed)`` work items.

Every cell x repetition of the paper's experiment grids is an
independent, seeded simulation — the embarrassingly parallel shape that
lets the CCA x MTU grid scale to hundreds of scenario points. The
executor layer fans :class:`WorkItem` batches out to a backend, picked
from ``jobs`` alone (:func:`resolve_executor`):

* :class:`SerialExecutor` — in-process, one item at a time. The
  reference semantics; zero overhead for small batches.
* :class:`ProcessExecutor` — a ``concurrent.futures``
  ``ProcessPoolExecutor`` running items across worker processes.

Backends are *interchangeable by construction*: each item carries its
own seed (derived per-item from the base seed, never from worker or
process state), every item runs on a fresh simulator, and results come
back in submission order. A ``jobs=8`` run is therefore bit-identical
to a serial one — which the determinism tests under ``tests/harness/``
assert.

:func:`run_work_items` is the single entry point the harness and all
figure pipelines share; it also consults the optional result cache
(:mod:`repro.harness.cache`) so only missing items reach the backend,
and threads an optional :class:`~repro.obs.observer.Observer` through
for tracing. With tracing on, each worker process appends journal
events to its own file (merged by the coordinator afterwards), so
observability never perturbs result ordering or content.

Failures keep their context: a worker exception is re-raised as
:class:`~repro.errors.ExperimentError` carrying the scenario name, the
seed, and the worker pid — and, when tracing, a ``worker_error``
journal event survives the crash.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

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
    resolve_observer,
)
from repro.obs.profile import PROFILE
from repro.obs.telemetry import TELEMETRY


@dataclass(frozen=True)
class WorkItem:
    """One independent simulation: a scenario plus its repetition seed."""

    scenario: AnyScenario
    seed: int


class CancelToken:
    """A latching cooperative stop flag shared across the sweep layers.

    The coordinator polls :attr:`cancelled` between item completions;
    anything holding a reference (a drift gate's ``on_result`` hook, a
    signal handler, ...) can call :meth:`cancel`. The first reason wins
    and the token never un-cancels, so every layer observes the same
    decision.
    """

    def __init__(self) -> None:
        self._reason: Optional[str] = None

    def cancel(self, reason: str = "cancelled") -> None:
        if self._reason is None:
            self._reason = reason

    @property
    def cancelled(self) -> bool:
        return self._reason is not None

    @property
    def reason(self) -> str:
        return self._reason if self._reason is not None else "cancelled"


class FileCancelToken(CancelToken):
    """A cancel token that is also raised/observed via a flag file.

    This is the cross-process abort channel: the coordinator polls
    ``path`` between completions, so an external watcher can stop a
    sweep it did not start by creating the file. The file's first line,
    when present, becomes the abort reason; :meth:`cancel` writes the
    file so in-process aborts are visible to other watchers too.
    """

    def __init__(self, path: Union[str, Path]):
        super().__init__()
        self.path = Path(path)

    def cancel(self, reason: str = "cancelled") -> None:
        super().cancel(reason)
        try:
            self.path.write_text(self.reason + "\n", encoding="utf-8")
        except OSError:
            pass  # the in-memory latch still stops this process

    @property
    def cancelled(self) -> bool:
        if self._reason is not None:
            return True
        if self.path.exists():
            try:
                text = self.path.read_text(encoding="utf-8").strip()
            except OSError:
                text = ""
            lines = text.splitlines()
            self._reason = lines[0] if lines else "abort file present"
            return True
        return False


@dataclass
class SweepControl:
    """Observational hooks threaded through a batch run.

    ``on_result`` fires on the coordinator for every completed item —
    cache hits included — in submission order, receiving the item's
    original submission index, the item, and its measurement.
    ``cancel`` is polled between completions; once it fires, the
    remaining items are skipped (queued pool futures are cancelled) and
    a :class:`~repro.errors.SweepAbortedError` carrying the finished
    portion propagates. Both hooks are strictly observational: they
    must not mutate scenarios or results (the determinism contract),
    only watch them and, at most, pull the cord.
    """

    on_result: Optional[
        Callable[[int, WorkItem, "RunMeasurement"], None]
    ] = None
    cancel: Optional[CancelToken] = None

    def notify(
        self, index: int, item: WorkItem, measurement: RunMeasurement
    ) -> None:
        if self.on_result is not None:
            self.on_result(index, item, measurement)

    def check(
        self, completed: Dict[int, RunMeasurement], total: int
    ) -> None:
        """Raise :class:`SweepAbortedError` if a stop was requested."""
        if self.cancel is not None and self.cancel.cancelled:
            raise SweepAbortedError(
                self.cancel.reason, partial=completed, total=total
            )


#: the do-nothing control every batch without hooks runs under, so the
#: executors have one (cancellable) result loop rather than two
_NO_CONTROL = SweepControl()


def _worker_error(item: WorkItem, exc: Exception) -> ExperimentError:
    """Wrap a worker failure with the context the coordinator loses."""
    return ExperimentError(
        f"work item failed (scenario={item.scenario.name!r}, "
        f"seed={item.seed}, worker pid={worker_id()}): "
        f"{type(exc).__name__}: {exc}"
    )


def execute_item(item: WorkItem) -> RunMeasurement:
    """Run one work item (module-level so process pools can pickle it)."""
    try:
        return run_once(item.scenario, seed=item.seed)
    except Exception as exc:
        raise _worker_error(item, exc) from exc


def run_item_observed(
    item: WorkItem,
    index: int,
    observer: Observer,
    cache_key: Optional[str] = None,
) -> RunMeasurement:
    """Run one item, journaling its lifecycle around :func:`run_once`.

    ``run_started`` / ``run_finished`` events carry the submission
    index, scenario name, seed and content-address; ``run_finished``
    additionally records the measurement's deterministic summary
    (energy, simulated duration, :meth:`RunMeasurement.counters`) plus
    the diagnostic wall time. On failure a ``worker_error`` event is
    journaled before the wrapped :class:`ExperimentError` is raised.

    ``cache_key`` is the address :func:`run_work_items` hashed for the
    item, so every event of one item names the same key; it is hashed
    here only for a caller that brings none.
    """
    if not observer.enabled:
        return execute_item(item)
    common = dict(item=index, scenario=item.scenario.name, seed=item.seed)
    if cache_key is None:
        cache_key = compute_key(item.scenario, item.seed)
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
        energy_j=measurement.energy_j,
        sim_time_s=measurement.duration_s,
        counters=measurement.counters(),
        extras=measurement.extras,
        wall_s=perf_clock() - started,
        **common,
    )
    return measurement


@dataclass(frozen=True)
class _TracedItem:
    """A work item shipped to a pool worker together with trace context."""

    item: WorkItem
    index: int
    trace_dir: str
    cache_key: Optional[str]
    #: whether the coordinator's observer profiles the sim loop;
    #: workers mirror it so a jobs=N profile covers every run
    profile: bool = False


#: per-process journal observers, keyed by trace directory — a pool
#: worker opens its ``worker-<pid>.jsonl`` once and appends across items
_WORKER_OBSERVERS: Dict[str, JournalObserver] = {}


def _worker_observer(trace_dir: str, profile: bool = False) -> JournalObserver:
    observer = _WORKER_OBSERVERS.get(trace_dir)
    if observer is None:
        wid = worker_id()
        observer = JournalObserver(
            JOURNAL.worker_path(trace_dir, wid),
            worker=wid,
            telemetry_path=TELEMETRY.worker_path(trace_dir, wid),
            profile_path=(
                PROFILE.worker_path(trace_dir, wid) if profile else None
            ),
        )
        _WORKER_OBSERVERS[trace_dir] = observer
    return observer


def execute_item_traced(traced: _TracedItem) -> RunMeasurement:
    """Pool entry point when tracing: journal to this worker's file."""
    observer = _worker_observer(traced.trace_dir, profile=traced.profile)
    return run_item_observed(
        traced.item, traced.index, observer, traced.cache_key
    )


class Executor:
    """Maps work items to measurements, preserving submission order."""

    name: str = "base"

    def run_items(
        self,
        items: Sequence[WorkItem],
        observer: Optional[Observer] = None,
        indices: Optional[Sequence[int]] = None,
        control: Optional[SweepControl] = None,
        keys: Optional[Sequence[str]] = None,
    ) -> List[RunMeasurement]:
        raise NotImplementedError


def _resolve_indices(
    items: Sequence[WorkItem], indices: Optional[Sequence[int]]
) -> List[int]:
    if indices is None:
        return list(range(len(items)))
    if len(indices) != len(items):
        raise ExperimentError(
            f"{len(indices)} indices for {len(items)} work items"
        )
    return list(indices)


def _resolve_keys(
    items: Sequence[WorkItem], keys: Optional[Sequence[str]]
) -> Sequence[Optional[str]]:
    if keys is None:
        return [None] * len(items)
    if len(keys) != len(items):
        raise ExperimentError(f"{len(keys)} keys for {len(items)} work items")
    return keys


class SerialExecutor(Executor):
    """The reference backend: run items in-process, in order."""

    name = "serial"

    def run_items(
        self,
        items: Sequence[WorkItem],
        observer: Optional[Observer] = None,
        indices: Optional[Sequence[int]] = None,
        control: Optional[SweepControl] = None,
        keys: Optional[Sequence[str]] = None,
    ) -> List[RunMeasurement]:
        obs = NULL_OBSERVER if observer is None else observer
        control = _NO_CONTROL if control is None else control
        index_list = _resolve_indices(items, indices)
        key_list = _resolve_keys(items, keys)
        completed: Dict[int, RunMeasurement] = {}
        results: List[RunMeasurement] = []
        for index, item, key in zip(index_list, items, key_list):
            control.check(completed, len(items))
            measurement = run_item_observed(item, index, obs, key)
            completed[index] = measurement
            results.append(measurement)
            control.notify(index, item, measurement)
        return results


class ProcessExecutor(Executor):
    """Fan items out across ``jobs`` worker processes.

    Results are collected in submission order (``pool.map``), and each
    item's seed travels with it, so the outcome never depends on which
    worker ran what or in which order items finished. With tracing on,
    workers journal to per-pid files under the observer's trace
    directory; the coordinator merges them after the batch.
    """

    name = "process"

    def __init__(self, jobs: Optional[int] = None):
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ExperimentError(f"need >= 1 worker process, got {jobs}")
        self.jobs = jobs

    def run_items(
        self,
        items: Sequence[WorkItem],
        observer: Optional[Observer] = None,
        indices: Optional[Sequence[int]] = None,
        control: Optional[SweepControl] = None,
        keys: Optional[Sequence[str]] = None,
    ) -> List[RunMeasurement]:
        items = list(items)
        obs = NULL_OBSERVER if observer is None else observer
        control = _NO_CONTROL if control is None else control
        index_list = _resolve_indices(items, indices)
        if self.jobs == 1 or len(items) <= 1:
            return SerialExecutor().run_items(
                items, observer=obs, indices=index_list, control=control, keys=keys
            )
        # the only place that builds a pool: a serial run never imports
        # the concurrent.futures / multiprocessing / logging / socket stack
        from concurrent.futures import ProcessPoolExecutor

        workers = min(self.jobs, len(items))
        entry: Callable[[Any], RunMeasurement]
        payload: Sequence[Any]
        if obs.enabled and obs.trace_dir is not None:
            payload = [
                _TracedItem(
                    item=item,
                    index=index,
                    trace_dir=str(obs.trace_dir),
                    cache_key=key,
                    profile=obs.profile_enabled,
                )
                for index, item, key in zip(
                    index_list, items, _resolve_keys(items, keys)
                )
            ]
            entry = execute_item_traced
        else:
            payload = items
            entry = execute_item
        # Consume results in submission order as they land, polling the
        # stop flag between completions. ``pool.map`` submits everything
        # up front, so a cancel only skips futures that have not started
        # yet — finished work is kept.
        completed: Dict[int, RunMeasurement] = {}
        results: List[RunMeasurement] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            stream = pool.map(entry, payload)
            for index, item in zip(index_list, items):
                try:
                    control.check(completed, len(items))
                except SweepAbortedError:
                    pool.shutdown(wait=True, cancel_futures=True)
                    raise
                measurement = next(stream)
                completed[index] = measurement
                results.append(measurement)
                control.notify(index, item, measurement)
        return results


def resolve_executor(jobs: Optional[int] = None) -> Executor:
    """The backend is a function of ``jobs``: None or 1 means serial,
    more means a process pool of that size."""
    if jobs is None or jobs == 1:
        return SerialExecutor()
    return ProcessExecutor(jobs)


def run_work_items(
    items: Sequence[WorkItem],
    jobs: Optional[int] = None,
    cache: Union[None, str, Path, ResultCache] = None,
    observer: Union[None, str, Path, Observer] = None,
    control: Optional[SweepControl] = None,
) -> List[RunMeasurement]:
    """Execute a batch of work items, cache-aware and order-preserving.

    ``jobs`` alone picks the backend (:func:`resolve_executor`). With
    a cache, stored measurements are returned directly and only the
    misses are dispatched to the backend (then stored). The result
    list always lines up index-for-index with ``items``.

    ``observer`` (an :class:`~repro.obs.observer.Observer` or a trace
    directory) journals the batch: ``batch_started``, per-item
    ``cache_hit``/``cache_miss``, the workers' run events, and
    ``batch_finished``, plus spans around cache I/O. Tracing is purely
    observational — results are bit-identical with it on or off — and
    worker journals are merged even when the batch fails, so crashed
    sweeps keep their evidence.

    ``control`` adds per-completion hooks and cooperative cancellation
    (see :class:`SweepControl`). On a traced run with no explicit
    cancel token, a :class:`FileCancelToken` on
    ``<trace_dir>/abort.requested`` is installed automatically, so an
    external ``greenenvy obs watch --abort-on-drift`` (or a plain
    ``touch``) can stop the sweep. A cancelled batch stores whatever
    finished to the cache, journals ``batch_aborted``, and raises
    :class:`~repro.errors.SweepAbortedError` carrying the partial
    results keyed by submission index.
    """
    items = list(items)
    backend = resolve_executor(jobs)
    store = ensure_cache(cache)
    obs = resolve_observer(observer)
    if not obs.enabled and store is None and control is None:
        # The zero-overhead path: no cache bookkeeping, no events.
        return backend.run_items(items)

    control = _NO_CONTROL if control is None else control
    if obs.enabled and obs.trace_dir is not None and control.cancel is None:
        # Every traced run is externally abortable via its flag file.
        control = SweepControl(
            on_result=control.on_result,
            cancel=FileCancelToken(Path(obs.trace_dir) / ABORT_FILENAME),
        )

    if obs.enabled:
        obs.emit(
            "batch_started",
            items=len(items),
            backend=backend.name,
            cache=store is not None,
        )
    # One content address per item, hashed here and nowhere after: the
    # store is addressed by it and every journal event of the item names
    # it, under the store's schema version when there is a store.
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
    for i, (item, prior) in enumerate(zip(items, results)):
        if prior is not None:
            control.notify(i, item, prior)
    try:
        control.check({}, len(items))
        fresh = backend.run_items(
            [items[i] for i in missing],
            observer=obs,
            indices=missing,
            control=control,
            keys=[keys[i] for i in missing],
        )
    except SweepAbortedError as exc:
        # Keep every finished measurement: store to cache, fold in the
        # hits, and journal the abort before letting it propagate.
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
            for i, measurement in zip(missing, fresh):
                store.save(keys[i], measurement)
                results[i] = measurement
    else:
        for i, measurement in zip(missing, fresh):
            results[i] = measurement
    if obs.enabled:
        obs.emit(
            "batch_finished",
            items=len(items),
            executed=len(missing),
            cache_hits=len(items) - len(missing),
        )
    return [r for r in results if r is not None]
