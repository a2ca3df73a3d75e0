"""Energy-aware flow scheduling as a pluggable subsystem.

The paper's core claim — serializing flows instead of fair-sharing them
can cut energy 5–20 % — is a first-class *policy* decision here, and
the only way a single-link or fabric scenario schedules its flows:

* :mod:`repro.sched.policy` — the :class:`SchedulingPolicy` protocol
  and the plan datatypes it produces (admit/defer/ordering per flow on
  virtual time, plus network-level hints like the bottleneck qdisc);
* :mod:`repro.sched.policies` — the concrete policies: ``fair``,
  ``serialized``, ``srpt``, ``deadline``, ``load-adaptive``;
* :mod:`repro.sched.registry` — the named-policy registry the
  ``policy=`` seam (scenarios, figures, CLI) resolves through;
* :mod:`repro.sched.fluid` — an analytic fluid (processor-sharing)
  evaluator used by the ``deadline`` policy and its feasibility proofs,
  and the §4.1 energy price of a plan on the same timeline.

Everything here is pure planning: policies never touch the simulator,
so a plan is a deterministic function of the requests and context, and
the harness realizes it by completion chaining on virtual time.
"""

from __future__ import annotations

from repro.sched.policy import (
    FlowRequest,
    FlowSchedule,
    SchedulePlan,
    SchedulingContext,
    SchedulingPolicy,
)
from repro.sched.fluid import fluid_completions, fluid_energy_j
from repro.sched.policies import (
    DeadlinePolicy,
    FairPolicy,
    LoadAdaptivePolicy,
    PFABRIC_WINDOW_SEGMENTS,
    SerializedPolicy,
    SrptPolicy,
)
from repro.sched.registry import (
    get_policy,
    policy_names,
    register_policy,
    resolve_policy_list,
    resolve_policy_name,
)

__all__ = [
    "FlowRequest",
    "FlowSchedule",
    "SchedulePlan",
    "SchedulingContext",
    "SchedulingPolicy",
    "fluid_completions",
    "fluid_energy_j",
    "FairPolicy",
    "SerializedPolicy",
    "SrptPolicy",
    "DeadlinePolicy",
    "LoadAdaptivePolicy",
    "PFABRIC_WINDOW_SEGMENTS",
    "get_policy",
    "policy_names",
    "register_policy",
    "resolve_policy_list",
    "resolve_policy_name",
]
