"""The perf gate: exact work counters, one pinned set per workload shape.

These are counts, not timings: Python frames entered in the functions
that *are* the simulator's work, on four runs shaped like the four
``bench/`` workloads. They repeat exactly on every machine and Python
version, so a change that moves one either meant to (update the number
and say why in the PR) or made the hot path do more work than it needs
to. Wall time is reported by ``python -m bench`` / ``bench compare``
and asserted nowhere in tier-1.

The pinned counters say how much work a run is; frames per segment say
what a unit of it costs: every Python frame entered under
``src/repro/{sim,net,tcp,cc,energy}`` divided by the segments sent. It
is held under a ceiling, so a property, a pass-through wrapper or a
value computed twice on the per-packet path fails here. (Per segment,
not per heap push: a change that removes pushes makes the run cheaper
and frames per push higher.)
``CCA_FRAMES`` holds the same kind of number for each congestion
control algorithm on its own: frames under ``src/repro/cc`` per ACK.
What a frame's *call* costs no frame count sees; the keyword arguments
at the per-packet constructor calls are counted from the source.

The classes allocated per event, packet, ACK, segment and telemetry
stream keep ``__slots__``: an instance ``__dict__`` is an allocation
per event that enters no frame, so the counters above cannot see it.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.cc.base import AckEvent
from repro.cc.registry import _REGISTRY, get_class
from repro.core.allocation import FAIR_PLAN_NAME, fig1_allocations
from repro.energy.cpu import CpuPackage
from repro.figures.fig1 import DEFAULT_CAPACITY_BPS
from repro.figures.grid import run_cca_mtu_grid
from repro.harness import runner
from repro.harness.cache import ResultCache, compute_key
from repro.harness.experiment import scenario_from_plan
from repro.harness.runner import run_once
from repro.net.packet import Packet
from repro.obs.journal import read_journal
from repro.obs.observer import TracingObserver
from repro.obs.telemetry import read_telemetry
from repro.sim.engine import Event, Simulator
from repro.sim.probe import TimeSeriesProbeSink
from repro.sim.trace import TimeSeries
from repro.tcp.sender import SegmentInfo, TcpSender

from tests.conftest import count_calls
from tests.harness.test_fabric_determinism import fabric_scenario
from tests.net.test_interface_oracle import CensusSimulator
from tests.tcp.test_wakeup_oracle import SCENARIOS

#: counter -> the functions whose entered frames it sums. Heap pushes
#: are not among them: most are written in place and enter no frame, so
#: they are read off ``Simulator._seq`` (every push draws one)
COUNTED = {
    "segments": [TcpSender._send_packet],
    "acks": [TcpSender._handle_packet],
    "cancels": [Event.cancel],
    "try_send_entries": [TcpSender._try_send],
    # every registered CCA's on_ack; one that chains to its parent's
    # (bbr2, westwood) enters two frames per ACK, and that is work too
    "cca_on_ack": {
        vars(cls)["on_ack"]
        for name in sorted(_REGISTRY)
        for cls in get_class(name).__mro__
        if "on_ack" in vars(cls)
    },
    "energy_samples": [CpuPackage.flush],
}


def work(calls, simulators):
    """The pinned counters out of one :func:`count_calls` tally and the
    simulators the counted call built."""
    return {
        "heap_pushes": sum(sim._seq for sim in simulators),
        **{
            counter: sum(calls.get(fn.__code__, 0) for fn in functions)
            for counter, functions in COUNTED.items()
        },
    }


@pytest.fixture
def simulators(monkeypatch):
    """Every :class:`Simulator` ``run_once`` builds from now on, in
    order."""
    built = []

    class Kept(Simulator):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(runner, "Simulator", Kept)
    return built


#: the packages a packet passes through: their frames are the data
#: path's cost
DATA_PATH = tuple(
    f"/repro/{package}/" for package in ("sim", "net", "tcp", "cc", "energy")
)

#: the one shape where the packages around the simulator work too
TRACED_PATH = DATA_PATH + tuple(
    f"/repro/{package}/" for package in ("obs", "harness", "apps")
)

#: shape -> most frames one segment may cost (its share of ACKs, timers
#: and energy samples included). A ceiling, not an equality (3.12
#: inlines comprehensions, so totals differ between interpreters): what
#: the code reaches on 3.11 (33.3 / 38.8 / 90.7, and 27.8 over
#: ``TRACED_PATH`` for the grid cell; 33.0 / 38.8 / 90.3 and 27.5
#: before a network config checked its parts' limits when made and the
#: testbed's builder registered its parts; 30.9 while the trace directory's
#: close rendered metric exports from a journal fold the observer fed
#: every record; 32.5 / 38.6 / 89.3 and 30.4 while an
#: ACK without a SACK block skipped ``_apply_sacks``, which is why the
#: grid cell's ceiling rose 30.5 -> 31.0, by the 0.51 frames per segment
#: that cost on ``make frames``; 29.4 while that directory was never
#: closed and the observer counted into a live metrics registry;
#: 32.8 / 39.1 / 91.6 while
#: ``schedule_at`` entered ``push``, 40.4 / 44.9 / 102.3 and 33.4
#: before the packet path's pushes were written in place) plus under
#: 5 %. Lower one when a PR earns it; raise one only with the reason in
#: the PR.
FRAMES_PER_SEGMENT_CEILING = {
    "dumbbell_sweep": 34.0,
    "lossy_mix": 40.5,
    "fabric_datacenter": 94.0,
    "cca_mtu_grid": 29.0,
}


def check_frames_per_segment(calls, ceiling, packages=DATA_PATH):
    inside = {
        code: n
        for code, n in calls.items()
        if any(part in code.co_filename for part in packages)
    }
    segments = calls[TcpSender._send_packet.__code__]
    per_segment = sum(inside.values()) / segments
    busiest = sorted(inside.items(), key=lambda item: -item[1])[:10]
    assert per_segment <= ceiling, (
        f"{per_segment:.2f} frames per segment, ceiling {ceiling}; "
        "most entered:\n"
        + "\n".join(
            f"  {n / segments:5.2f}/segment  "
            f"{code.co_filename.split('/repro/')[-1]}:"
            f"{getattr(code, 'co_qualname', code.co_name)}"
            for code, n in busiest
        )
    )


_FIG1_FAIR_PLAN = next(
    plan
    for plan in fig1_allocations(400_000, DEFAULT_CAPACITY_BPS, (0.5,))
    if plan.name == FAIR_PLAN_NAME
)

#: shape -> (scenario, seed), each named after the bench workload it
#: is the small version of
RUNS = {
    # two 400 kB CUBIC flows at the fair share: the scenario
    # `make obs-diff` replays
    "dumbbell_sweep": (scenario_from_plan("fig1-fair", _FIG1_FAIR_PLAN), 0),
    # eight CCAs through a five-packet drop-tail buffer: SACK churn,
    # fast retransmit, RTO re-arm
    "lossy_mix": (SCENARIOS["lossy_mix"], 3),
    # 1000 DCTCP rpc flows on a 64-host leaf-spine fabric
    "fabric_datacenter": (fabric_scenario("fair"), 0),
}

PINNED = {
    "dumbbell_sweep": {
        "segments": 90,
        "acks": 46,
        # 6.0 per segment: one per link hop (the segment's, and its
        # share of an ACK's) plus a finish for each packet something
        # queued behind, NIC drains, and what is left of the timers.
        # Only 17 of them, timers and session starts, build an Event
        # and join the event heap: the rest cannot be cancelled and are
        # a packet-heap entry the link or the NIC writes in place
        "heap_pushes": 536,
        # ~0 per ACK: RTO and delayed-ACK timers re-arm in place
        "cancels": 3,
        # 1.2 per ACK: one per ACK, one per start, and only the qdisc
        # drains that found the sender blocked by the qdisc
        "try_send_entries": 54,
        "cca_on_ack": 46,
        "energy_samples": 6,
    },
    "lossy_mix": {
        "segments": 504,
        "acks": 300,
        "heap_pushes": 2460,
        "cancels": 18,
        "try_send_entries": 391,
        # under half the ACKs: duplicates and recovery ACKs do not
        # reach cong_avoid
        "cca_on_ack": 123,
        "energy_samples": 56,
    },
    "fabric_datacenter": {
        "segments": 1020,
        "acks": 1000,
        "heap_pushes": 11976,
        "cancels": 64,
        # one per ACK and one per start: nothing here blocks on a qdisc
        "try_send_entries": 2000,
        "cca_on_ack": 1000,
        "energy_samples": 192,
    },
    # one CCA x MTU cell traced cold into a cache, then replayed: the
    # only shape where obs and the cache do any work
    "cca_mtu_grid": {
        "segments": 137,
        "acks": 69,
        "heap_pushes": 553,
        "cancels": 2,
        "try_send_entries": 70,
        "cca_on_ack": 69,
        "energy_samples": 3,
        "journal_events": 12,
        "telemetry_records": 8,
        "replay_work": 0,
        # the item is hashed once when it runs and once when it replays:
        # the store and every journal event share that one key
        "key_computations": {"cold": 1, "replayed": 1},
        # frames of TimeSeriesProbeSink.sample. The cell ends inside
        # the first 1 ms telemetry interval, so each of the 8 streams
        # keeps one point, and the per-ACK and per-queue-operation call
        # sites build only the samples the sink keeps (280 calls before
        # they gated on the sink's interval)
        "sink_samples": 8,
    },
}


@pytest.mark.parametrize("shape", sorted(RUNS))
def test_run_work_counters(shape, simulators):
    scenario, seed = RUNS[shape]
    _, calls = count_calls(run_once, scenario, seed)
    assert work(calls, simulators) == PINNED[shape]
    check_frames_per_segment(calls, FRAMES_PER_SEGMENT_CEILING[shape])


def grid_cell(cache_dir, cca="cubic", **kwargs):
    return run_cca_mtu_grid(
        transfer_bytes=200_000, mtus=(1500,), ccas=(cca,),
        repetitions=1, cache_dir=cache_dir, **kwargs,
    )


def traced_grid_cell(cache_dir, trace):
    """:func:`grid_cell` with its owner's observer built and closed
    inside, so the counted frames include the close."""
    with TracingObserver(trace) as obs:
        return grid_cell(cache_dir, observer=obs)


def test_grid_cell_cold_then_replayed_work_counters(tmp_path, simulators):
    cache = ResultCache(tmp_path / "cache")
    trace = tmp_path / "trace"
    cold, cold_calls = count_calls(traced_grid_cell, cache, trace)
    cold_simulators = simulators[:]
    replayed, replay_calls = count_calls(grid_cell, cache)
    assert replayed == cold
    assert {
        **work(cold_calls, cold_simulators),
        "journal_events": len(read_journal(trace)),
        "telemetry_records": len(read_telemetry(trace)),
        # a replay that simulates anything at all shows here
        "replay_work": sum(
            work(replay_calls, simulators[len(cold_simulators):]).values()
        ),
        "key_computations": {
            "cold": cold_calls.get(compute_key.__code__, 0),
            "replayed": replay_calls.get(compute_key.__code__, 0),
        },
        "sink_samples": cold_calls.get(TimeSeriesProbeSink.sample.__code__, 0),
    } == PINNED["cca_mtu_grid"]
    check_frames_per_segment(
        cold_calls, FRAMES_PER_SEGMENT_CEILING["cca_mtu_grid"], TRACED_PATH
    )


#: CCA -> frames entered under ``src/repro/cc`` by one cold grid cell.
#: Every cell is 137 segments and 69 ACKs, so per ACK this is 2.1
#: (baseline: its ``AckEvent`` and an ``on_ack`` that does not react) /
#: 3.1 (reno, cubic, highspeed, scalable, vegas, swift: ``AckEvent``,
#: ``on_ack`` and one of ``slow_start`` / ``_hystart`` /
#: ``target_delay``) / 4.1-7.4 (dctcp, westwood and the rate-based
#: hpcc, dcqcn) / 19.7 (bbr) / 29.1 (bbr2) — from 4.1 / 8.0-9.1 /
#: 6.3-10.1 / 36.7 / 45.5 when a window-based CCA was asked for its
#: pacing rate on every send opportunity, ``in_slow_start``, ``_clamp``
#: and ``min_cwnd`` were calls on every ACK, and BBR read its filter
#: through ``_evict`` up to three times per ACK. Exact, because the
#: package has no comprehension for 3.12 to inline. What is left of
#: bbr's is one ``pacing_rate_bps`` -> ``bw_bps`` ->
#: ``WindowedFilter.get`` per send opportunity (3.9 of them per ACK
#: here). hpcc's window floor is written out too, but this cell stamps
#: no INT, so its ``on_ack`` returns before it (the frames of an ACK
#: with INT are pinned in ``tests/cc/test_production.py``).
CCA_FRAMES = {
    "baseline": 143,
    "bbr": 1359,
    "bbr2": 2007,
    "cubic": 212,
    "dcqcn": 512,
    "dctcp": 281,
    "highspeed": 211,
    "hpcc": 434,
    "reno": 211,
    "scalable": 211,
    "swift": 212,
    "vegas": 212,
    "westwood": 350,
}


def test_every_registered_cca_has_a_frame_pin():
    assert sorted(CCA_FRAMES) == sorted(_REGISTRY)


@pytest.mark.parametrize("cca", sorted(CCA_FRAMES))
def test_cca_frames_per_ack(cca, tmp_path):
    _, calls = count_calls(grid_cell, ResultCache(tmp_path / "cache"), cca)
    assert calls[TcpSender._handle_packet.__code__] == 69
    assert sum(
        n for code, n in calls.items() if "/repro/cc/" in code.co_filename
    ) == CCA_FRAMES[cca]


@pytest.mark.parametrize("shape", sorted(PINNED))
def test_no_shape_meets_the_tie_the_heap_key_leaves_open(
    shape, monkeypatch, tmp_path
):
    """A link hop pushes its delivery when serialisation starts, placed
    where the finish event would have pushed it. One same-instant order
    that placement does not reproduce (``repro.sim.engine``'s design
    notes; ``CensusSimulator`` counts it) — these runs never meet it, so
    they are the runs of the two-event link, event for event."""
    simulators = []

    class Census(CensusSimulator):
        def __init__(self):
            super().__init__()
            simulators.append(self)

    monkeypatch.setattr(runner, "Simulator", Census)
    if shape in RUNS:
        run_once(*RUNS[shape])
    else:
        grid_cell(ResultCache(tmp_path / "cache"))
    assert [sim.undecided for sim in simulators] == [0]
    assert simulators[0]._seq == PINNED[shape]["heap_pushes"]


#: the classes allocated per event, segment, packet and ACK, and the
#: per-kind packet constructors
PER_PACKET_CLASSES = {
    "Event", "Packet", "SegmentInfo", "AckEvent", "data_packet", "ack_packet",
}
SRC = Path(repro.__file__).parent


def test_per_packet_constructor_calls_pass_few_keywords():
    """What a frame count cannot see is what the frame's call costs:
    ``AckEvent`` built from 13 keywords takes three times as long as the
    same object built positionally, and both are one frame. So the
    keyword arguments at the constructor calls of the per-packet classes
    under ``sim``/``net``/``tcp``/``cc`` are counted from the source and
    pinned (38 before the hot call sites went positional, 7 before data
    segments and ACKs got a constructor each whose parameters are the
    fields that kind sets): the next keyword on a per-packet allocation
    fails here the way the next property fails the ceilings above. The
    fields each positional call fills are asserted by name in
    ``tests/tcp/test_call_shape.py``."""
    sites = {}
    for package in ("sim", "net", "tcp", "cc"):
        for path in sorted((SRC / package).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in PER_PACKET_CLASSES
                ):
                    site = f"{package}/{path.name}:{node.func.id}"
                    sites[site] = sites.get(site, 0) + len(node.keywords)
    assert sites == {
        "sim/engine.py:Event": 0,
        "tcp/receiver.py:ack_packet": 0,
        "tcp/sender.py:AckEvent": 0,
        "tcp/sender.py:SegmentInfo": 0,
        "tcp/sender.py:data_packet": 0,
    }


@pytest.mark.parametrize(
    "cls",
    [Event, Packet, AckEvent, SegmentInfo, TimeSeries],
    ids=lambda cls: cls.__name__,
)
def test_per_event_instances_carry_no_dict(cls):
    assert not hasattr(cls.__new__(cls), "__dict__")
