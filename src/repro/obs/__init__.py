"""``repro.obs`` — structured tracing and profiling of the pipeline.

The paper's claims rest on instrumented measurement (RAPL counters,
iperf3 retr columns, per-interval power samples); this package applies
the same discipline to the reproduction's own pipeline. A trace is a
directory of record streams, and every view reads those files. Two
layers:

*Writing a trace* (on the run path):

* :mod:`repro.obs.observer` — the :class:`Observer` protocol the
  harness threads through every layer. The base class is a no-op (the
  zero-overhead default); :class:`TracingObserver` owns a trace
  directory and its streams.
* :mod:`repro.obs.journal` — a structured JSONL event stream per sweep
  (``run_started``, ``cache_hit``, ``run_finished``, ``worker_error``,
  ``span``, ...), safe to write from process-pool workers: each worker
  appends to its own file and the coordinator merges them afterwards.
* :mod:`repro.obs.telemetry` — in-sim time series (cwnd, queue depth,
  instantaneous power...) collected through the sim-side
  :mod:`repro.sim.probe` protocol and persisted as ``telemetry.jsonl``
  next to the journal (both on :mod:`repro.obs.stream`);
  :mod:`repro.obs.attrib` adds each run's per-flow energy split to it.
* :mod:`repro.obs.profile` — the sim loop under ``cProfile``, as
  ``profile.jsonl``, for a trace opened with ``profile=True`` only.

*Reading a trace* (never loaded by a traced run):

* :mod:`repro.obs.progress` — the one fold of a journal
  (:class:`ProgressTracker`): ``obs report`` (:mod:`repro.obs.report`)
  and ``obs watch`` are views of it.
* :mod:`repro.obs.timeline` — ``greenenvy obs timeline`` over the
  telemetry.
* :mod:`repro.obs.baseline` — committed snapshots of a sweep's scalar
  outcomes plus the tolerance-aware diff behind ``greenenvy obs diff``,
  the regression gate CI runs.
* :mod:`repro.obs.live` — watching a *running* sweep: the journal
  tailer behind ``greenenvy obs watch`` and the mid-run drift gate.

Nothing is imported here. The six names below are the ones ``bench/``
imports through this package, and they resolve on first use
(:mod:`repro._lazy`), so a run that needs the no-op observer does not
load the report, timeline, baseline and progress views; every other
name is imported from the module that defines it.

One invariant is non-negotiable and machine-enforced (the
``obs-no-feedback`` simlint rule): observability state never flows
*into* simulation results. ``repro.sim``/``repro.net``/``repro.cc``/
``repro.tcp`` must not import this package; instrumentation lives in
the harness, which observes the simulator from outside.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

#: public name -> the submodule that defines it, imported on first use
_EXPORTS = {
    "JournalWriter": "journal",
    "read_journal": "journal",
    "Observer": "observer",
    "TracingObserver": "observer",
    "summarize_journal": "report",
    "read_telemetry": "telemetry",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
