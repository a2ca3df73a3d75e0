"""Hot-path profiler protocol: the neutral half of the profiling channel.

ROADMAP item 1 calls for a *profile-driven* engine overhaul, which needs
to know where the event loop's time goes — but the simulation must never
read observability state back (the ``obs-no-feedback`` contract). This
module mirrors :mod:`repro.sim.probe`: it defines the write-only
protocol instrumented hot paths call, and the observability layer
(:mod:`repro.obs.profile`) implements the recording half from the other
side. The ``obs-profile-no-sim-import`` lint rule enforces exactly that
direction.

The protocol is aggregate-only by design. Hot paths report *which*
component is running (``enter``/``exit``) and *what* happened
(``count``); any wall-clock reads happen inside the obs-side
implementation, and only aggregate deltas ever leave it — never
per-event timestamps, and nothing sim-visible, so the
``obs-probe-wall-clock`` and determinism guarantees hold whether
profiling is on or off.
"""

from __future__ import annotations

#: component keys the shipped instrumentation sites use; dispatch keys
#: (one per event callback) are derived from the callback's qualname by
#: the engine and prefixed with ``DISPATCH_PREFIX``
DISPATCH_PREFIX = "sim.dispatch"
QUEUE_ENQUEUE = "net.queue.enqueue"
QUEUE_DEQUEUE = "net.queue.dequeue"
TCP_HANDLE_PACKET = "tcp.sender.handle_packet"

#: counter keys (``count(...)``), all aggregate tallies
EVENTS_DISPATCHED = "events_dispatched"


class HotPathProfiler:
    """No-op profiler: the zero-overhead default.

    Instrumented hot paths gate on :attr:`enabled` before calling any
    hook, so an unprofiled run pays one attribute read and a branch per
    site. The base class swallows everything; subclasses (obs-side)
    accumulate per-component aggregates. Hooks are write-only: nothing
    returns state the simulation could branch on.
    """

    #: instrumentation sites skip hook calls when this is False
    enabled: bool = False

    def count(self, key: str, n: int = 1) -> None:
        """Add ``n`` to an aggregate tally (e.g. per-event-type counts)."""

    def enter(self, component: str) -> None:
        """Mark entry into a profiled component (nestable)."""

    def exit(self, component: str) -> None:
        """Mark exit from the most recently entered component."""


#: the shared no-op profiler every simulator starts with
NULL_PROFILER = HotPathProfiler()


#: memoized qualname -> key strings, so the per-event cost is one dict
#: lookup. Keyed by the name (bounded: one entry per distinct callback
#: qualname), never by the callback object — holding closures alive
#: across runs would be a leak. Lookups only, never iterated.
_DISPATCH_KEYS: dict = {}


def dispatch_key(callback: object) -> str:
    """The deterministic per-event-type key for an engine callback.

    Bound methods and plain functions map to their qualified name
    (``TcpSender._on_rto``); anything without one falls back to the
    type name. Never includes ids or addresses, so keys are identical
    across runs, interpreters and worker processes.
    """
    func = getattr(callback, "__func__", callback)
    name = getattr(func, "__qualname__", None)
    if name is None:
        name = type(callback).__name__
    key = _DISPATCH_KEYS.get(name)
    if key is None:
        # runs once per distinct callback qualname, not per event
        key = f"{DISPATCH_PREFIX}.{name}"
        _DISPATCH_KEYS[name] = key
    return key
