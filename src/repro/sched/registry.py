"""The named-policy registry the ``policy=`` seam resolves through.

Scenarios, figures, and the CLI all refer to policies by name; the
registry is the single mapping from names to
:class:`~repro.sched.policy.SchedulingPolicy` instances.

Adding a policy is two steps: subclass ``SchedulingPolicy`` (set
``name``/``description``, implement ``plan``) and call
:func:`register_policy` — see docs/scheduling.md for a worked example.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.sched.policies import (
    DeadlinePolicy,
    FairPolicy,
    LoadAdaptivePolicy,
    SerializedPolicy,
    SrptPolicy,
)
from repro.sched.policy import SchedulingPolicy

_REGISTRY: Dict[str, SchedulingPolicy] = {}


def register_policy(
    policy: SchedulingPolicy, *, replace: bool = False
) -> SchedulingPolicy:
    """Add a policy instance under its class's ``name``.

    Returns the policy so the call composes as a one-liner after class
    definition. Re-registering an existing name raises unless
    ``replace=True`` (tests swapping in instrumented doubles).
    """
    name = policy.name
    if not name:
        raise ExperimentError(
            f"{type(policy).__name__} declares no policy name"
        )
    if name in _REGISTRY and not replace:
        raise ExperimentError(
            f"policy {name!r} already registered (pass replace=True to "
            f"override)"
        )
    _REGISTRY[name] = policy
    return policy


def resolve_policy_name(name: str) -> str:
    """Canonicalize a policy spelling (case, surrounding blanks);
    unknowns raise."""
    spelling = name.strip().lower()
    if spelling not in _REGISTRY:
        known = ", ".join(policy_names())
        raise ExperimentError(
            f"unknown scheduling policy {name!r} (known: {known})"
        )
    return spelling


def resolve_policy_list(
    policies: Optional[Sequence[str]],
    default: Sequence[str],
    figure: str,
    require_fair: bool = True,
) -> List[str]:
    """Canonical names of the policy arms one figure runs.

    ``None`` falls back to the figure's ``default`` arms. ``figure``
    labels the error messages. Figures that report savings relative to
    fair sharing (``require_fair``) reject a list without ``fair``.
    """
    names = [
        resolve_policy_name(p)
        for p in (default if policies is None else policies)
    ]
    if require_fair and "fair" not in names:
        raise ExperimentError(
            f"the {figure} reports savings vs fair; include 'fair'"
        )
    if not names:
        raise ExperimentError(f"the {figure} needs at least one policy")
    return names


def get_policy(name: str) -> SchedulingPolicy:
    """The registered policy instance for any accepted spelling."""
    return _REGISTRY[resolve_policy_name(name)]


def policy_names() -> Tuple[str, ...]:
    """Registered canonical names, sorted for stable display and sweeps."""
    return tuple(sorted(_REGISTRY))


for _policy in (
    FairPolicy(),
    SerializedPolicy(),
    SrptPolicy(),
    DeadlinePolicy(),
    LoadAdaptivePolicy(),
):
    register_policy(_policy)
del _policy
