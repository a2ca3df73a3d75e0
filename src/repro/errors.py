"""Exception hierarchy for the Green-With-Envy reproduction library.

Every exception raised intentionally by this library derives from
:class:`ReproError`, so applications can catch library errors without
masking genuine bugs (``TypeError`` etc. still propagate).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly (e.g. scheduling in the past)."""


class NetworkConfigError(ReproError):
    """A network element was configured with invalid parameters."""


class TcpStateError(ReproError):
    """A TCP connection was driven through an invalid state transition."""


class EnergyModelError(ReproError):
    """The energy model was configured or queried inconsistently."""


class ExperimentError(ReproError):
    """An experiment description is invalid or a run failed to complete."""


class SweepAbortedError(ExperimentError):
    """A sweep was cancelled cooperatively before every item ran.

    Raised by the executor layer when a :class:`~repro.harness.executor.
    CancelToken` fires mid-batch (``--abort-on-drift``, an external
    ``obs watch`` abort request, ...). Unlike a worker crash, the
    completed portion of the batch is intact and travels with the
    exception so callers can render partial figures or store results.

    ``partial`` maps the original submission index of every finished
    item to its measurement; ``total`` is the batch size; ``reason``
    says who pulled the cord. :meth:`~repro.harness.sweep.Sweep.run`
    fills in the richer views on the way up: ``partial_sweep`` (a
    ``SweepResults`` of the grid points whose repetitions all
    finished) and, for figure drivers, ``partial_figure`` (the
    figure's result type built from those rows). Both stay ``None``
    when the batch was not run through a sweep.
    """

    def __init__(
        self,
        reason: str,
        partial: Optional[Mapping[int, Any]] = None,
        total: int = 0,
    ):
        self.reason = reason
        self.partial = dict(partial or {})
        self.total = total
        self.partial_sweep: Optional[Any] = None
        self.partial_figure: Optional[Any] = None
        super().__init__(
            f"sweep aborted after {len(self.partial)}/{total} items: {reason}"
        )


class AnalysisError(ReproError):
    """An analysis routine received data it cannot process."""


class ObservabilityError(ReproError):
    """The tracing layer was configured or fed inconsistently."""
