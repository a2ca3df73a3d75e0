"""The sim-loop profile: the ``cProfile`` fold, exports, determinism, CLI.

The profiling channel's contract mirrors telemetry's: turning it on
must never change simulation results (profiling on/off and jobs=1 vs
jobs=N all produce bit-identical measurements and telemetry), while the
records' integer fields (calls and caller → callee edges) are exact and
deterministic; only the seconds vary. The stream mechanics every trace
file shares (reading, torn tails, worker partials, canonical order) are
tested once for all three in ``tests/obs/test_stream.py``.
"""

import cProfile
import json

import pytest

from repro.figures.fig1 import run_fig1
from repro.harness import runner
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import run_once
from repro.obs.journal import read_journal
from repro.obs.observer import JournalObserver, TracingObserver
from repro.obs.profile import (
    PROFILE_FILENAME,
    aggregate_profiles,
    export_profile,
    function_key,
    layer_of,
    profile_record,
    read_profile,
    summarize_profile,
)
from repro.obs.telemetry import telemetry_path
from repro.sim.engine import Event, Simulator
from repro.tcp.sender import TcpSender

BYTES = 100_000
REPS = 1


def key(function):
    """A function's record key (before 3.11 a code object has no
    qualname, so keys are derived, not spelled out)."""
    return function_key(function.__code__)


RUN = key(Simulator.run)
HANDLE_ACK = key(TcpSender._handle_packet)


def profiled_record(fn):
    """``fn()`` under the profiler ``ProfiledSpan`` runs, folded."""
    profiler = cProfile.Profile(builtins=False)
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    return profile_record(profiler.getstats(), "scn", 3)


def one_rescheduling_event():
    """An event that schedules a second one; the test's own frames and
    the standard library's must stay out of the record."""
    sim = Simulator()
    sim.schedule(1.0, sim.schedule, 1.0, sim.stop)
    sim.run()


class TestFold:
    def test_keys_are_repro_path_and_qualname(self):
        if hasattr(Simulator.run.__code__, "co_qualname"):
            assert RUN == "sim/engine.py:Simulator.run"
        record = profiled_record(one_rescheduling_event)
        assert set(record["calls"]) == {
            key(fn)
            for fn in (
                Event.__init__, Simulator.__init__, Simulator.stop,
                Simulator.run, Simulator.schedule, Simulator.schedule_at,
            )
        }

    def test_calls_and_edges_are_exact(self):
        record = profiled_record(one_rescheduling_event)
        assert record["calls"][key(Simulator.schedule)] == 2
        assert record["calls"][key(Simulator.schedule_at)] == 2
        assert record["edges"] == {
            # the first schedule() is called by the test: no repro caller
            RUN: {key(Simulator.schedule): 1, key(Simulator.stop): 1},
            key(Simulator.schedule): {key(Simulator.schedule_at): 2},
            key(Simulator.schedule_at): {key(Event.__init__): 2},
        }

    def test_record_is_sorted_and_rounded(self):
        record = profiled_record(one_rescheduling_event)
        assert (record["scenario"], record["seed"]) == ("scn", 3)
        for name in ("calls", "edges", "self_s", "total_s"):
            assert list(record[name]) == sorted(record[name])
        assert list(record["self_s"]) == list(record["calls"])
        for key, self_s in record["self_s"].items():
            assert round(self_s, 9) == self_s
            assert 0.0 <= self_s <= record["total_s"][key]

    def test_layer_is_the_package_under_repro(self):
        assert layer_of(HANDLE_ACK) == "tcp"
        assert layer_of("units.py:msec") == "units"


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """Run the small fig1 sweep once per (jobs, profile) combination."""
    runs = {}
    for jobs in (1, 4):
        for profile in (False, True):
            root = tmp_path_factory.mktemp(f"trace-j{jobs}-p{int(profile)}")
            with TracingObserver(root, profile=profile) as obs:
                result = run_fig1(
                    transfer_bytes=BYTES,
                    repetitions=REPS,
                    jobs=jobs,
                    observer=obs,
                )
            runs[(jobs, profile)] = (root, result)
    return runs


class TestProfilingChangesNothing:
    @pytest.mark.parametrize("jobs", (1, 4))
    def test_measurements_identical_with_profiling_on(self, sweep, jobs):
        _, off = sweep[(jobs, False)]
        _, on = sweep[(jobs, True)]
        assert off.format_table() == on.format_table()

    @pytest.mark.parametrize("jobs", (1, 4))
    def test_telemetry_bytes_identical_with_profiling_on(self, sweep, jobs):
        off_root, _ = sweep[(jobs, False)]
        on_root, _ = sweep[(jobs, True)]
        assert (
            telemetry_path(off_root).read_bytes()
            == telemetry_path(on_root).read_bytes()
        )

    def test_profile_only_written_when_asked(self, sweep):
        off_root, _ = sweep[(1, False)]
        on_root, _ = sweep[(1, True)]
        assert not (off_root / PROFILE_FILENAME).exists()
        assert (on_root / PROFILE_FILENAME).exists()


class TestDeterminism:
    def test_aggregates_identical_across_job_counts(self, sweep):
        serial = aggregate_profiles(read_profile(sweep[(1, True)][0]))
        parallel = aggregate_profiles(read_profile(sweep[(4, True)][0]))
        assert serial.calls == parallel.calls
        assert serial.edges == parallel.edges
        assert serial.runs == parallel.runs

    def test_records_identical_across_job_counts_modulo_wall(self, sweep):
        def shape(root):
            return [
                (r["scenario"], r["seed"], r["calls"], r["edges"])
                for r in read_profile(root)
            ]

        assert shape(sweep[(1, True)][0]) == shape(sweep[(4, True)][0])

    def test_no_worker_partials_left_behind(self, sweep):
        root, _ = sweep[(4, True)]
        assert not list(root.glob("profile-worker-*.jsonl"))

    def test_events_dispatched_counted(self, sweep):
        # every event the loop dispatches is one call out of Simulator.run
        for jobs in (1, 4):
            root, _ = sweep[(jobs, True)]
            executed = {
                (e["scenario"], e["seed"]): e["events_executed"]
                for e in read_journal(root)
                if e["event"] == "span" and e["phase"] == "sim_loop"
            }
            dispatched = {
                (r["scenario"], r["seed"]): sum(r["edges"][RUN].values())
                for r in read_profile(root)
            }
            assert dispatched == executed
            assert all(n > 0 for n in dispatched.values())


class TestExactCounts:
    def test_handle_packet_calls_are_the_acks_sent(self, tmp_path, monkeypatch):
        # a loss-free run delivers every ACK its receivers send
        sessions = []
        phase, prepare, measure = runner._LINK_KIND

        def keep_sessions(scenario, sim, seed):
            prepared = prepare(scenario, sim, seed)
            sessions.extend(prepared.sessions)
            return prepared

        monkeypatch.setattr(
            runner, "_LINK_KIND", (phase, keep_sessions, measure)
        )
        scenario = Scenario(name="acks", flows=[FlowSpec(200_000)], packages=1)
        with JournalObserver(
            tmp_path / "journal.jsonl", profile_path=tmp_path / PROFILE_FILENAME
        ) as obs:
            measurement = run_once(scenario, 0, observer=obs)
        assert measurement.bottleneck_drops == 0
        [record] = read_profile(tmp_path)
        acks = sum(s.receiver.counters.get("acks_sent") for s in sessions)
        assert acks > 0
        assert record["calls"][HANDLE_ACK] == acks


class TestExports:
    @pytest.fixture(scope="class")
    def exported(self, sweep):
        root, _ = sweep[(1, True)]
        records = read_profile(root)
        return root, records, export_profile(root, records=records)

    def test_folded_lines_are_path_space_micros(self, exported):
        _, _, paths = exported
        lines = paths["folded"].read_text().strip().splitlines()
        assert any(line.startswith("sim;") for line in lines)
        for line in lines:
            path, _, micros = line.rpartition(" ")
            layer, function = path.split(";")
            assert layer == layer_of(function)
            assert int(micros) >= 0

    def test_callgrind_header_and_functions(self, exported):
        _, _, paths = exported
        text = paths["callgrind"].read_text()
        assert text.startswith("# callgrind format")
        assert "events: WallUs Calls" in text
        assert f"fn={HANDLE_ACK}" in text
        # caller-callee edges carry cfn/calls pairs
        assert f"cfn={HANDLE_ACK}" in text and "calls=" in text

    def test_chrome_trace_schema(self, exported):
        _, records, paths = exported
        trace = json.loads(paths["chrome"].read_text())
        events = trace["traceEvents"]
        layers = aggregate_profiles(records).layers()
        assert len(events) == len(layers) + sum(map(len, layers.values()))
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["pid"] == 1 and event["tid"] == 1
            assert event["cat"] in layers
            assert event["args"]["calls"] > 0
        # a layer's slice holds its functions' slices end to end
        for layer, functions in layers.items():
            [outer] = [e for e in events if e["name"] == layer]
            inner = [e for e in events if e["name"] in functions]
            assert sum(e["dur"] for e in inner) == outer["dur"]

    def test_summary_names_the_hot_components(self, exported):
        _, records, _ = exported
        summary = summarize_profile(records, top=3)
        assert "runs" in summary
        assert "  by layer:\n    " in summary
        assert len(summary.split("hottest functions:\n")[1].splitlines()) == 3
        assert HANDLE_ACK in summarize_profile(records, top=1000)

    def test_export_without_records_reads_the_trace(self, sweep, tmp_path):
        root, _ = sweep[(1, True)]
        paths = export_profile(root)
        assert all(p.exists() for p in paths.values())


class TestCli:
    def test_obs_profile_runs_and_exports(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace"
        code = main([
            "obs", "profile", str(trace),
            "--bytes", str(BYTES), "--reps", "1", "--top", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert (trace / "profile.folded").exists()
        assert (trace / "callgrind.out.greenenvy").exists()
        assert (trace / "profile.trace.json").exists()

    def test_obs_profile_rerun_replaces_the_first_runs_records(
        self, tmp_path
    ):
        from repro.cli import main

        trace = tmp_path / "trace"
        argv = ["obs", "profile", str(trace), "--bytes", str(BYTES), "--reps", "1"]
        assert main(argv) == 0
        first = len(read_profile(trace))
        assert main(argv) == 0
        assert len(read_profile(trace)) == first > 0

    def test_obs_report_includes_profile_section(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace"
        assert main([
            "obs", "profile", str(trace), "--bytes", str(BYTES), "--reps", "1",
        ]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "== sim-loop profile ==" in out
        assert "== engine heap ==" in out
        assert "== top energy flows ==" in out
