"""Every counter a run leaves, compared with a golden copy.

A network or TCP object's ``counters`` read the same whatever keeps the
counts: by-name increments of a :class:`~repro.sim.trace.CounterSet`, or
the ``int`` fields :class:`~repro.sim.trace.Counted` writes into that set
on each read. ``counter_oracle.json`` was taken from a tree in which
every counter was a by-name increment. For each run below, it holds
``dict(x.counters)`` of every :class:`Host`, :class:`Nic`, :class:`Link`,
:class:`Interface`, :class:`Switch`, queue, :class:`TcpSender` and
:class:`TcpReceiver` the run built, in the order it built them. The runs
are the four shapes of ``tests/test_work_counters.py``, plus a pFabric
bottleneck and a DCTCP pair through a low marking threshold: none of
the four builds a ``PriorityQueue`` or marks a packet.

Taking it again (only at a commit whose counters are the reference, and
the diff of the file is then the change under review)::

    PYTHONPATH=src python -m tests.test_counter_oracle > tests/counter_oracle.json
"""

import json
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.apps.iperf import IperfSession
from repro.energy.cpu import CpuModel
from repro.harness.cache import ResultCache
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import run_once
from repro.net.host import Host
from repro.net.link import Interface, Link
from repro.net.nic import Nic
from repro.net.queue import DropTailQueue
from repro.net.switch import Switch
from repro.net.topology import build_testbed
from repro.sim.engine import Simulator
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender

from tests.test_work_counters import RUNS, grid_cell

GOLDEN = Path(__file__).with_name("counter_oracle.json")

#: the classes whose instances own counters (a queue subclass is
#: recorded by ``DropTailQueue.__init__``, which it calls)
OWNERS = (
    Host, Nic, Link, Interface, Switch, DropTailQueue, TcpSender, TcpReceiver,
)

#: shape -> a scenario run at seed 0 for what the four shapes lack
EXTRA = {
    # two flows through a small pFabric bottleneck: evictions and drops
    "priority": Scenario(
        "counter-oracle-priority",
        flows=[FlowSpec(200_000), FlowSpec(100_000)],
        buffer_bytes=40_000,
        bottleneck_discipline="priority",
    ),
    # two DCTCP flows, marked above two jumbo frames of queue
    "ecn": Scenario(
        "counter-oracle-ecn",
        flows=[FlowSpec(200_000, cca="dctcp"), FlowSpec(200_000, cca="dctcp")],
        ecn_threshold_bytes=18_000,
    ),
}

SHAPES = (*sorted(RUNS), "cca_mtu_grid", *EXTRA)


@contextmanager
def built():
    """Every instance of :data:`OWNERS` constructed inside the block,
    by class name, in construction order."""
    instances = {cls.__name__: [] for cls in OWNERS}
    originals = {cls: cls.__init__ for cls in OWNERS}

    def recording(cls, init):
        def __init__(self, *args, **kwargs):
            instances[cls.__name__].append(self)
            init(self, *args, **kwargs)
        return __init__

    for cls, init in originals.items():
        cls.__init__ = recording(cls, init)
    try:
        yield instances
    finally:
        for cls, init in originals.items():
            cls.__init__ = init


def run(shape, scratch):
    if shape == "cca_mtu_grid":
        grid_cell(ResultCache(Path(scratch) / "cache"))
    elif shape in EXTRA:
        run_once(EXTRA[shape], 0)
    else:
        run_once(*RUNS[shape])


def counters_of(instances):
    return {
        name: [dict(sorted(owner.counters.items())) for owner in owners]
        for name, owners in instances.items()
    }


def capture():
    """The golden file's contents, from this tree."""
    golden = {}
    for shape in SHAPES:
        with tempfile.TemporaryDirectory() as scratch, built() as instances:
            run(shape, scratch)
        golden[shape] = counters_of(instances)
    return golden


@pytest.mark.parametrize("shape", SHAPES)
def test_every_counter_a_run_leaves(shape, tmp_path):
    with built() as instances:
        run(shape, tmp_path)
    assert counters_of(instances) == json.loads(GOLDEN.read_text())[shape]
    for owners in instances.values():
        for owner in owners:
            assert owner.counters is owner.counters


def test_a_second_read_shows_the_traffic_after_the_first():
    sim = Simulator()
    with built() as instances:
        testbed = build_testbed(sim)
        CpuModel(sim, testbed.sender)
        IperfSession(testbed, total_bytes=200_000, cca="cubic")
    sim.run(until=50e-6)
    owners = [owner for group in instances.values() for owner in group]
    first = [(owner.counters, dict(owner.counters)) for owner in owners]
    sim.run()
    moved = 0
    for owner, (read, before) in zip(owners, first):
        assert owner.counters is read
        after = dict(read)
        for name in owner.COUNTER_FIELDS:
            count = getattr(owner, name)
            assert after.get(name, 0.0) == float(count)
            assert count >= before.get(name, 0.0)
            moved += count > before.get(name, 0.0)
    # every field of every owner but the idle ones moved after the first read
    assert moved == sum(
        1 for owner in owners for name in owner.COUNTER_FIELDS
        if getattr(owner, name)
    )


def dump(golden):
    """JSON with one owner's counters per line, so a diff names owners."""
    shapes = []
    for shape, classes in sorted(golden.items()):
        groups = [
            f"  {json.dumps(name)}: [\n"
            + ",\n".join(f"   {json.dumps(row)}" for row in rows)
            + "\n  ]"
            for name, rows in sorted(classes.items())
        ]
        shapes.append(f" {json.dumps(shape)}: {{\n" + ",\n".join(groups) + "\n }")
    return "{\n" + ",\n".join(shapes) + "\n}"


if __name__ == "__main__":
    print(dump(capture()))
