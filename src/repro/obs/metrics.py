"""In-process metrics: counters, gauges, fixed-bucket histograms.

A tiny, dependency-free subset of the Prometheus data model, enough to
answer the questions the pipeline keeps asking (how many runs, what
cache hit ratio, how is sim-loop wall time distributed) without pulling
in a client library. Metrics are identified by ``(name, labels)`` and
export two ways:

* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (``# HELP``/``# TYPE`` + samples), scrape-ready.
* :meth:`MetricsRegistry.to_dict` — a JSON-ready document for tooling.

Everything here is observability state only: nothing in this module may
ever feed back into simulation results (the ``obs-no-feedback`` simlint
rule enforces the import direction).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ObservabilityError

#: default histogram buckets for span wall times, in seconds. Spans
#: range from sub-millisecond cache reads to multi-minute grid cells.
DEFAULT_SPAN_BUCKETS_S: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: canonical key of one metric instance: (name, sorted label items)
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]

Labels = Optional[Mapping[str, str]]


def _metric_key(name: str, labels: Labels) -> MetricKey:
    if not name or not name.replace("_", "").replace(":", "").isalnum():
        raise ObservabilityError(f"invalid metric name {name!r}")
    if labels is None:
        return (name, ())
    return (name, tuple(sorted(zip(map(str, labels), map(str, labels.values())))))


def _render(name: str, labels: Sequence[Tuple[str, str]]) -> str:
    """``name{k="v",...}``, one sample's name in the text exposition."""
    if not labels:
        return name
    parts = []
    for key, value in labels:
        # Prometheus label values escape backslash, the double quote and
        # line feed (in that order, so escapes introduced here are not
        # re-escaped).
        value = (
            value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )
        parts.append(f'{key}="{value}"')
    return f"{name}{{{','.join(parts)}}}"


class _Scalar:
    """One value under a ``(name, labels)`` key; exports itself."""

    kind = ""

    def __init__(self, name: str, labels: Labels = None, help: str = ""):
        self.key = _metric_key(name, labels)
        self.help = help
        self.value = 0.0

    def samples(self) -> List[Tuple[str, float]]:
        name, labels = self.key
        return [(_render(name, labels) if labels else name, self.value)]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.key[0],
            "kind": self.kind,
            "labels": dict(self.key[1]),
            "value": self.value,
        }


class Counter(_Scalar):
    """A monotonically increasing value (events seen, hits, errors)."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        """Increment by ``amount`` (must be >= 0: counters never go down)."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.key[0]} increment must be >= 0, got {amount}"
            )
        self.value += amount


class Gauge(_Scalar):
    """A value that can go up and down (events/sec, queue depth)."""

    kind = "gauge"

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket distribution of observations (Prometheus semantics).

    ``buckets`` are upper bounds in ascending order; an implicit ``+Inf``
    bucket catches the tail. Bucket counts are cumulative on export,
    exactly like a Prometheus ``_bucket`` series, so existing tooling
    (e.g. ``histogram_quantile``) reads them unchanged.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Labels = None,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_SPAN_BUCKETS_S,
    ):
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ObservabilityError(
                f"histogram {name!r} buckets must be strictly ascending, "
                f"got {buckets}"
            )
        self.key = _metric_key(name, labels)
        self.help = help
        self.buckets = tuple(map(float, buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # + the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def samples(self) -> List[Tuple[str, float]]:
        name, labels = self.key
        bounds = [f"{bound:g}" for bound in self.buckets] + ["+Inf"]
        out: List[Tuple[str, float]] = []
        cumulative = 0
        for bound, count in zip(bounds, self.counts):
            cumulative += count
            out.append(
                (_render(f"{name}_bucket", labels + (("le", bound),)), cumulative)
            )
        out.append((_render(f"{name}_sum", labels), self.sum))
        out.append((_render(f"{name}_count", labels), self.count))
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.key[0],
            "kind": self.kind,
            "labels": dict(self.key[1]),
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create registry of metrics, keyed by (name, labels).

    The same name may appear with different label sets (one counter per
    event type, say) but never with two different kinds — asking for a
    gauge where a counter is registered is a bug, not a new metric.
    """

    def __init__(self) -> None:
        self._metrics: Dict[MetricKey, Metric] = {}
        self._kinds: Dict[str, str] = {}

    def _get_or_create(
        self, cls: type, name: str, labels: Labels, help: str, **kwargs: Any
    ) -> Metric:
        fresh = cls(name, labels=labels, help=help, **kwargs)
        # One kind per name across every label set, so a key's metric
        # is always of its name's kind.
        kind = self._kinds.setdefault(name, fresh.kind)
        if kind != fresh.kind:
            raise ObservabilityError(
                f"metric {name!r} already registered as {kind}"
            )
        return self._metrics.setdefault(fresh.key, fresh)

    def counter(self, name: str, labels: Labels = None, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, labels, help)  # type: ignore[return-value]

    def gauge(self, name: str, labels: Labels = None, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, labels, help)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        labels: Labels = None,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_SPAN_BUCKETS_S,
    ) -> Histogram:
        return self._get_or_create(  # type: ignore[return-value]
            Histogram, name, labels, help, buckets=buckets
        )

    # -- exporters ----------------------------------------------------

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (scrape-ready)."""
        lines: List[str] = []
        seen_names: set = set()
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            name = key[0]
            if name not in seen_names:
                seen_names.add(name)
                if metric.help:
                    lines.append(f"# HELP {name} {metric.help}")
                lines.append(f"# TYPE {name} {metric.kind}")
            for rendered, value in metric.samples():
                lines.append(f"{rendered} {value:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of every metric (schema version 1)."""
        return {
            "version": 1,
            "metrics": [
                self._metrics[key].to_dict() for key in sorted(self._metrics)
            ],
        }
