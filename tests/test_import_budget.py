"""The import budget: what a run loads, as an exact gate.

``setup_s`` is mostly import time, and import time is mostly *which*
modules load. The five fan-out packages off the data path
(``repro.figures``, ``repro.obs``, ``repro.analysis``, ``repro.core``,
``repro.harness``) keep a ``name -> submodule`` table in their
``__init__`` and import nothing (:mod:`repro._lazy`), so an entry point
pays for the modules it uses. The first half of this file pins the
loaded set after ``import repro.harness.runner`` in a fresh interpreter:
an import put back into one of those ``__init__``s, or the process-pool
stack back at the top of ``harness/executor.py``, fails here naming the
module; the sweep path (the executor a pool worker unpickles its work
from, a figure module) loads neither ``repro.obs.profile`` nor
``cProfile``. The second half is the namespace contract that keeps the
lazy packages indistinguishable from eager ones for every importer.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import count_calls

SRC = Path(__file__).resolve().parent.parent / "src"

#: every ``repro`` module ``import repro.harness.runner`` may load: the
#: data path (sim, net, tcp, cc, energy, apps, sched: eager, a run needs
#: them) plus what ``run_once`` itself uses of the other packages
RUNNER_MODULES = """
repro repro._lazy repro.errors repro.units
repro.analysis repro.analysis.stats
repro.apps repro.apps.iperf repro.apps.probe repro.apps.workload
repro.cc repro.cc.base repro.cc.bbr repro.cc.bbr2 repro.cc.constant
repro.cc.cubic repro.cc.dcqcn repro.cc.dctcp repro.cc.filters
repro.cc.highspeed repro.cc.hpcc repro.cc.registry repro.cc.reno
repro.cc.scalable repro.cc.swift repro.cc.vegas repro.cc.westwood
repro.core repro.core.allocation
repro.energy repro.energy.calibration repro.energy.cpu repro.energy.fleet
repro.energy.meter repro.energy.power_model repro.energy.rapl
repro.energy.stress repro.energy.switch_power
repro.harness repro.harness.experiment repro.harness.fabric
repro.harness.runner
repro.net repro.net.host repro.net.link repro.net.nic repro.net.packet
repro.net.queue repro.net.switch repro.net.topology
repro.obs repro.obs.attrib repro.obs.journal repro.obs.observer
repro.obs.stream repro.obs.telemetry
repro.sched repro.sched.fluid repro.sched.policies repro.sched.policy
repro.sched.registry
repro.sim repro.sim.engine repro.sim.probe repro.sim.rng
repro.sim.timer repro.sim.trace
repro.tcp repro.tcp.ranges repro.tcp.receiver repro.tcp.rtt repro.tcp.sender
""".split()

#: the pool machinery and what it drags in; only
#: ``ProcessExecutor.run_items`` may import it
POOL_STACK = ("concurrent.futures", "multiprocessing", "logging", "socket")


def loaded_after(statement):
    """``sys.modules`` of a fresh interpreter after ``statement``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport sys\nprint(*sorted(sys.modules))"],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return set(done.stdout.split())


def repro_modules(loaded):
    return {name for name in loaded if name == "repro" or name.startswith("repro.")}


#: never on the way to a single run, whatever else the pinned list becomes
NOT_FOR_A_RUN = (
    "repro.figures.",
    "repro.harness.executor", "repro.harness.sweep", "repro.harness.cache",
    "repro.obs.baseline", "repro.obs.progress", "repro.obs.timeline",
    "repro.obs.report", "repro.obs.live",
)


def test_runner_import_loads_exactly_the_pinned_modules():
    loaded = loaded_after("import repro.harness.runner")
    assert not [name for name in POOL_STACK if name in loaded]
    assert not [name for name in loaded if name.startswith(NOT_FOR_A_RUN)]
    got, pinned = repro_modules(loaded), set(RUNNER_MODULES)
    assert got == pinned, (
        f"import repro.harness.runner loads {len(got)} repro modules, "
        f"pinned {len(pinned)}; added: {sorted(got - pinned)}, "
        f"removed: {sorted(pinned - got)}"
    )


def test_a_serial_sweep_never_imports_the_pool_stack():
    loaded = loaded_after(
        "from repro.harness.executor import run_work_items\n"
        "assert run_work_items([]) == []"
    )
    assert not [name for name in POOL_STACK if name in loaded]


#: what only a profiled trace may load (``obs profile``, ``--profile``)
PROFILER = ("repro.obs.profile", "cProfile")


@pytest.mark.parametrize("module", ("repro.harness.executor", "repro.figures.fig1"))
def test_the_sweep_path_never_imports_the_profiler(module):
    loaded = loaded_after(f"import {module}")
    assert not [name for name in PROFILER if name in loaded]


def test_one_figure_module_loads_no_other_figure():
    loaded = loaded_after("import repro.figures.fig1")
    figures = {name for name in loaded if name.startswith("repro.figures.")}
    assert figures == {"repro.figures.fig1"}


def test_building_the_cli_parser_loads_no_command():
    """The figure, report and validate rows import what they run and
    measure only when their command runs."""
    loaded = loaded_after("import repro.cli\nrepro.cli.build_parser()")
    assert repro_modules(loaded) == {
        "repro", "repro._lazy", "repro.cli", "repro.errors",
        "repro.figures", "repro.figures.specs",
    }


# -- the namespace contract ------------------------------------------------

LAZY_PACKAGES = (
    "repro.figures", "repro.obs", "repro.analysis", "repro.core", "repro.harness",
)


@pytest.fixture(params=LAZY_PACKAGES)
def package(request):
    return importlib.import_module(request.param)


def test_every_export_is_the_object_its_submodule_defines(package):
    assert len(set(package.__all__)) == len(package.__all__) > 0
    for name in package.__all__:
        submodule = importlib.import_module(
            f"{package.__name__}.{package._EXPORTS[name]}"
        )
        assert getattr(package, name) is getattr(submodule, name), name


def test_dir_lists_every_export(package):
    assert set(dir(package)) >= set(package.__all__)


def test_unknown_name_raises_attribute_error_naming_both(package):
    unknown = "no_such_name"
    with pytest.raises(AttributeError) as raised:
        getattr(package, unknown)
    assert package.__name__ in str(raised.value)
    assert unknown in str(raised.value)
    assert not hasattr(package, unknown)


def test_star_import_binds_all_of_all(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(package.__all__)


def test_second_access_enters_no_python_frame(package):
    name = package.__all__[0]
    getattr(package, name)
    _, calls = count_calls(getattr, package, name)
    assert calls == {}


def test_first_access_in_a_fresh_interpreter_resolves_and_caches():
    loaded_after(
        "import repro.harness as h\n"
        "assert 'run_once' not in vars(h)\n"
        "from repro.harness import run_once\n"
        "from repro.harness.runner import run_once as defined\n"
        "assert vars(h)['run_once'] is run_once is defined"
    )


def test_from_package_import_submodule_is_the_submodule():
    from repro.harness import fabric

    assert fabric is sys.modules["repro.harness.fabric"]
    loaded = loaded_after(
        "from repro.harness import fabric\n"
        "assert fabric.__name__ == 'repro.harness.fabric'"
    )
    assert "repro.harness.executor" not in loaded
