"""``repro.lint`` — simulator-correctness static analysis (simlint).

The reproduction's headline numbers rest on two conventions nothing in
Python enforces: every quantity is in SI base units (:mod:`repro.units`)
and all randomness flows through seeded named streams
(:mod:`repro.sim.rng`). This package is a per-file AST linter that
turns those conventions — plus a few API-hygiene basics — into
mechanically checked rules. Each rule reads one parsed file; the only
cross-module knowledge is one table on
:class:`~repro.lint.core.LintContext` (function signatures).

Three rule families:

* **units** — unit-suffix mismatches in arithmetic and at call sites,
  raw exponent literals (``1e9``, ``1024**3``) outside ``units.py``
* **determinism** — unseeded entropy sources (``import random``,
  ``time.time()``, ``os.urandom``) outside ``sim/rng.py``; iteration
  over unordered sets and imports of ``repro.obs`` in the packages that
  produce results
* **api-hygiene** — mutable default arguments, bare ``except:``,
  missing ``from __future__ import annotations``, policy-name string
  comparison outside ``repro/sched``

Run it as ``greenenvy lint src examples`` (exit 0 clean, 1 findings, 2
usage error) or programmatically via :func:`run_lint`; every run runs
every rule. Findings are suppressed per line with a
``simlint: ignore[rule-name]`` comment; dead or misspelled suppressions
are themselves findings. Hot-path cost and
hash-order independence are measured, not linted:
``tests/test_work_counters.py`` and
``tests/test_hash_seed_independence.py`` (``docs/linting.md``,
"Measured and dropped", says why there is no call graph here). The
:class:`~repro.cc.base.CongestionControl` plug-in contract (registered
under its own ``name``, ``on_ack`` overridden, ``cwnd`` never below
``min_cwnd``) is a run-time test, ``tests/cc/test_registry.py``.
"""

from __future__ import annotations

from repro.lint.core import Finding, LintUsageError, ModuleInfo, Rule
from repro.lint.engine import LintResult, iter_rules, render_text, run_lint

__all__ = [
    "Finding",
    "LintResult",
    "LintUsageError",
    "ModuleInfo",
    "Rule",
    "iter_rules",
    "render_text",
    "run_lint",
]
