"""Determinism family: every run must be replayable from its seed.

The paper's methodology repeats every scenario and reports standard
deviations; the reproduction additionally promises bit-identical reruns
given the same ``--seed``. That only holds if *all* entropy flows
through :class:`repro.sim.rng.RngRegistry` streams and no code reads
wall clocks or kernel entropy. These rules ban the escape hatches:

* ``import random`` anywhere but ``sim/rng.py`` (type-only imports
  under ``if TYPE_CHECKING:`` are allowed — accepting a
  ``random.Random`` stream as a parameter is the blessed pattern),
* the module-level global RNG (``random.random()`` et al.), which is
  process-wide state even when the import is legal,
* wall-clock reads (``time.time``, ``datetime.now``) — simulators must
  use virtual time,
* OS entropy (``os.urandom``, ``uuid.uuid4``, ``secrets``),
* process/thread identity (``os.getpid``, ``threading.get_ident``):
  with the executor layer fanning work across processes, a pid leaking
  into a cache key or a worker's seed derivation would silently make
  results depend on which worker ran what, and
* iteration over unordered ``set`` values in the packages that produce
  results (``sim/``, ``net/``, ``cc/``, ``tcp/``, ``energy/``,
  ``apps/``, ``sched/``), where hash-order dependence silently reorders
  events, arrivals or plans between interpreter runs, and
* imports of the observability layer (``repro.obs``) from those same
  packages: observers are write-only diagnostics, and a simulator that
  *reads* tracing state (is tracing on? what did the journal say?)
  gains a hidden input that differs between traced and untraced runs,
  and
* wall clocks around telemetry probe sinks: sample timestamps must be
  virtual time (``sim.now``), never ``wall_clock()``/``perf_clock()``/
  ``time.*`` — telemetry files are diffed across runs and machines.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.core import Finding, LintContext, ModuleInfo, Rule, dotted_name

#: the packages that produce results: the event loop and what feeds it
#: (cwnd, arrivals and flow order, plans), and the joules read off it
SIM_DIRECTORIES = ("sim", "net", "cc", "tcp", "energy", "apps", "sched")

#: attribute reads on the ``random`` module that use the global RNG
GLOBAL_RNG_FUNCTIONS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "expovariate", "gauss", "normalvariate",
        "lognormvariate", "betavariate", "paretovariate", "triangular",
        "vonmisesvariate", "weibullvariate", "getrandbits", "randbytes",
        "seed",
    }
)

WALL_CLOCK_FUNCTIONS = frozenset(
    {
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "now", "utcnow", "today",
    }
)

#: (module, attribute) reads that identify the running process/thread
PROCESS_IDENTITY_FUNCTIONS = {
    "os": frozenset({"getpid", "getppid"}),
    "multiprocessing": frozenset({"current_process", "parent_process"}),
    "threading": frozenset({"get_ident", "get_native_id", "current_thread"}),
}


def _is_rng_module(module: ModuleInfo) -> bool:
    return module.display_path.endswith("sim/rng.py")


def _in_type_checking_block(module: ModuleInfo, node: ast.AST) -> bool:
    """Whether ``node`` sits under ``if TYPE_CHECKING:``."""
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, ast.If):
            test = dotted_name(ancestor.test)
            if test in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
                return True
    return False


class ImportRandom(Rule):
    """``import random`` outside ``sim/rng.py``."""

    name = "det-import-random"
    family = "determinism"
    description = (
        "`import random` outside sim/rng.py; draw from a seeded "
        "RngRegistry stream (type-only imports under TYPE_CHECKING are ok)"
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        if _is_rng_module(module):
            return
        for node in module.nodes:
            if isinstance(node, ast.Import):
                hit = any(alias.name == "random" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "random"
            else:
                continue
            if hit and not _in_type_checking_block(module, node):
                yield self.finding(
                    module,
                    node,
                    "import of `random` outside sim/rng.py; accept a "
                    "stream from RngRegistry instead (move the import "
                    "under `if TYPE_CHECKING:` if it is annotation-only)",
                )


class GlobalRng(Rule):
    """Calls to the process-wide global RNG (``random.random()`` etc.)."""

    name = "det-global-rng"
    family = "determinism"
    description = (
        "call to the module-level global RNG (random.random, "
        "random.choice, ...); use a named RngRegistry stream"
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee is None:
                continue
            parts = callee.split(".")
            if (
                len(parts) == 2
                and parts[0] == "random"
                and parts[1] in GLOBAL_RNG_FUNCTIONS
            ):
                yield self.finding(
                    module,
                    node,
                    f"`{callee}()` draws from the shared global RNG; use "
                    f"a seeded RngRegistry stream",
                )


class WallClock(Rule):
    """Wall-clock reads; simulator code must use virtual time."""

    name = "det-wall-clock"
    family = "determinism"
    description = (
        "wall-clock read (time.time(), datetime.now(), ...); use the "
        "simulator's virtual clock"
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        for node in module.nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in WALL_CLOCK_FUNCTIONS:
                        yield self.finding(
                            module,
                            node,
                            f"import of wall-clock `time.{alias.name}`; "
                            f"use the simulator's virtual clock",
                        )
                continue
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee is None:
                continue
            parts = callee.split(".")
            if parts[0] in ("time", "datetime") and parts[-1] in (
                WALL_CLOCK_FUNCTIONS
            ):
                yield self.finding(
                    module,
                    node,
                    f"`{callee}()` reads the wall clock; experiments must "
                    f"be a pure function of their seed",
                )


class OsEntropy(Rule):
    """Kernel entropy sources (``os.urandom``, ``uuid.uuid4``, secrets)."""

    name = "det-entropy"
    family = "determinism"
    description = (
        "OS entropy source (os.urandom, uuid.uuid4, secrets.*); derive "
        "ids/draws from the master seed instead"
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee is None:
                continue
            parts = callee.split(".")
            entropic = (
                (parts[0] == "os" and parts[-1] == "urandom")
                or (parts[0] == "uuid" and parts[-1] in ("uuid1", "uuid4"))
                or parts[0] == "secrets"
            )
            if entropic:
                yield self.finding(
                    module,
                    node,
                    f"`{callee}()` is non-deterministic OS entropy; derive "
                    f"from RngRegistry (hash the master seed and a name)",
                )


class ProcessIdentity(Rule):
    """Process/thread identity reads (``os.getpid`` and friends).

    Work items fan out across worker processes; replayability then
    demands that nothing a worker computes depends on *which* worker it
    is. A pid or thread id leaking into a cache key, a seed derivation,
    or a scenario name silently breaks the jobs=1 == jobs=N guarantee.
    """

    name = "det-process-identity"
    family = "determinism"
    description = (
        "process/thread identity read (os.getpid, threading.get_ident, "
        "...); results must not depend on which worker ran them — derive "
        "cache keys and seeds from scenario + seed only"
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        for node in module.nodes:
            if isinstance(node, ast.ImportFrom):
                banned = PROCESS_IDENTITY_FUNCTIONS.get(node.module or "")
                if not banned:
                    continue
                for alias in node.names:
                    if alias.name in banned:
                        yield self.finding(
                            module,
                            node,
                            f"import of `{node.module}.{alias.name}`; "
                            f"worker identity must not influence results",
                        )
                continue
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee is None:
                continue
            parts = callee.split(".")
            if len(parts) < 2:
                continue
            banned = PROCESS_IDENTITY_FUNCTIONS.get(parts[0])
            if banned and parts[-1] in banned:
                yield self.finding(
                    module,
                    node,
                    f"`{callee}()` identifies the running process/thread; "
                    f"cache keys and seeds must derive from the scenario "
                    f"spec and base seed only",
                )


def _is_set_expr(node: ast.AST) -> Optional[str]:
    """Describe ``node`` if it is an unordered set expression."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return f"a `{node.func.id}(...)` value"
    return None


class SetIteration(Rule):
    """Iteration over unordered sets inside the result-producing packages."""

    name = "det-set-iteration"
    family = "determinism"
    description = (
        "iterating an unordered set in sim/net/cc/tcp/energy/apps/sched; "
        "hash order varies across runs — sort it or use a list/dict"
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        if not any(module.in_directory(d) for d in SIM_DIRECTORIES):
            return
        for node in module.nodes:
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                # list(set(...)) / tuple(set(...)) launder hash order into
                # an innocently ordered-looking sequence.
                if node.func.id in ("list", "tuple") and node.args:
                    iters.append(node.args[0])
            for candidate in iters:
                described = _is_set_expr(candidate)
                if described is not None:
                    yield self.finding(
                        module,
                        node,
                        f"iterates {described}; set order depends on hash "
                        f"seeds — use sorted(...) or an ordered container",
                    )


#: what to do instead of importing repro.obs from simulator code
OBS_REMEDY = (
    "observers only ever receive copies of simulation state — keep "
    "the dependency pointing from the harness to obs, never from the "
    "simulation"
)


class ObsFeedback(Rule):
    """Imports of ``repro.obs`` inside the result-producing packages.

    The observability layer is strictly one-way: the harness *writes*
    events and metrics about the simulation, and nothing in the
    simulation ever reads them back. An ``import repro.obs`` inside
    ``sim/``, ``net/``, ``cc/``, ``tcp/``, ``energy/``, ``apps/`` or
    ``sched/`` is the first step of a feedback loop — behaviour that
    depends on whether tracing is on, a direction the jobs=1 == jobs=N
    and traced == untraced guarantees cannot survive.
    """

    name = "obs-no-feedback"
    family = "determinism"
    description = (
        "simulator package importing repro.obs; observability is "
        "write-only — sim/net/cc/tcp/energy/apps/sched must not read "
        "tracing state"
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        if not any(module.in_directory(d) for d in SIM_DIRECTORIES):
            return
        for node in module.nodes:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # `from repro.obs import journal` reaches repro.obs.journal
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(
                name == "repro.obs" or name.startswith("repro.obs.")
                for name in names
            ):
                yield self.finding(
                    module,
                    node,
                    f"simulator code importing `repro.obs`; {OBS_REMEDY}",
                )


#: the journal's blessed wall-clock helpers — legal for diagnostics,
#: never for telemetry sample timestamps
PROBE_CLOCK_HELPERS = frozenset({"wall_clock", "perf_clock"})


class ProbeWallClock(Rule):
    """Wall-clock use around telemetry probe sinks.

    Probe sinks record the *simulation's* trajectories, so samples must
    be stamped with virtual time — a wall-clock timestamp would make
    telemetry files differ between reruns and machines, breaking the
    traced == untraced and cross-run diffing guarantees. ``det-wall-
    clock`` already bans raw ``time.*`` reads everywhere; this rule
    closes the remaining hole: the journal's *blessed* diagnostics
    helpers (``wall_clock``/``perf_clock``) leaking into a module that
    defines a sink, or any ``sample(...)`` call stamped with a clock
    read instead of ``sim.now``.
    """

    name = "obs-probe-wall-clock"
    family = "determinism"
    description = (
        "wall clock near a telemetry probe sink; samples must be "
        "stamped with virtual time (sim.now), never wall_clock()/"
        "perf_clock()/time.*"
    )

    @staticmethod
    def _defines_probe_sink(module: ModuleInfo) -> bool:
        for node in module.nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name.endswith("ProbeSink"):
                return True
            for base in node.bases:
                base_name = dotted_name(base)
                if base_name and base_name.split(".")[-1].endswith("ProbeSink"):
                    return True
        return False

    @staticmethod
    def _clock_call(node: ast.AST) -> Optional[str]:
        if not isinstance(node, ast.Call):
            return None
        callee = dotted_name(node.func)
        if callee is None:
            return None
        parts = callee.split(".")
        if parts[-1] in PROBE_CLOCK_HELPERS:
            return callee
        if parts[0] in ("time", "datetime") and parts[-1] in WALL_CLOCK_FUNCTIONS:
            return callee
        return None

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        defines_sink = self._defines_probe_sink(module)
        for node in module.nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "sample"
                and node.args
            ):
                clock = self._clock_call(node.args[0])
                if clock is not None:
                    yield self.finding(
                        module,
                        node,
                        f"`sample(...)` stamped with `{clock}()`; telemetry "
                        f"samples must carry virtual time (sim.now)",
                    )
                    continue
            if not defines_sink:
                continue
            if isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                if mod in ("repro.obs", "repro.obs.journal"):
                    for alias in node.names:
                        if alias.name in PROBE_CLOCK_HELPERS:
                            yield self.finding(
                                module,
                                node,
                                f"probe-sink module importing "
                                f"`{alias.name}`; the journal's wall-clock "
                                f"helpers are for diagnostics, not "
                                f"telemetry timestamps",
                            )


DETERMINISM_RULES = [
    ImportRandom(),
    GlobalRng(),
    WallClock(),
    OsEntropy(),
    ProcessIdentity(),
    SetIteration(),
    ObsFeedback(),
    ProbeWallClock(),
]
