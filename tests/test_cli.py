"""Tests for the greenenvy CLI."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs.journal import read_journal

LINT_FIXTURES = Path(__file__).resolve().parent / "lint" / "fixtures"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig1_defaults(self):
        args = build_parser().parse_args(["fig1"])
        assert args.bytes == 12_500_000
        assert args.reps == 3

    def test_overrides(self):
        args = build_parser().parse_args(
            ["fig1", "--bytes", "1000", "--reps", "1", "--seed", "9"]
        )
        assert (args.bytes, args.reps, args.seed) == (1000, 1, 9)

    def test_advise_sizes(self):
        args = build_parser().parse_args(["advise", "100", "2e2"])
        assert args.sizes == [100, 200]


class TestCommands:
    def test_theorem_command(self, capsys):
        assert main(["theorem", "--trials", "50"]) == 0
        assert "CONFIRMED" in capsys.readouterr().out

    def test_advise_command(self, capsys):
        assert main(["advise", "10000000", "20000000"]) == 0
        out = capsys.readouterr().out
        assert "saving" in out
        assert "M/year" in out

    def test_advise_orders_shortest_first(self, capsys):
        assert main(["advise", "30000000", "10000000", "20000000"]) == 0
        out = capsys.readouterr().out
        assert "xfer-1 -> xfer-2 -> xfer-0" in out

    @pytest.mark.parametrize("size", ["0", "-5", "abc", "nan", "inf"])
    def test_advise_rejects_bad_size(self, capsys, size):
        assert main(["advise", "100", size]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: bad transfer size {size!r}")

    def test_fig1_command_tiny(self, capsys):
        code = main(["fig1", "--bytes", "2000000", "--reps", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "full-speed-then-idle" in out
        assert "max savings" in out

    def test_fig3_command_tiny(self, capsys):
        assert main(["fig3", "--bytes", "2000000"]) == 0
        out = capsys.readouterr().out
        assert "fair" in out and "serialized" in out

    def test_fig3_policy_flag_selects_panels(self, capsys):
        code = main(["fig3", "--bytes", "2000000", "--policy", "serialized"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== serialized ==" in out
        assert "== fair ==" not in out

    def test_policies_command_lists_registry(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in ("fair", "serialized", "srpt", "deadline", "load-adaptive"):
            assert name in out


class TestLintCommand:
    """Exit-code contract: 0 clean, 1 findings, 2 usage error."""

    def test_clean_path_exits_zero(self, capsys):
        code = main(["lint", str(LINT_FIXTURES / "units" / "clean_units.py")])
        assert code == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        code = main(["lint", str(LINT_FIXTURES / "units" / "bad_units.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "units-raw-literal" in out
        assert "bad_units.py" in out

    def test_missing_path_exits_two(self, capsys):
        code = main(["lint", "definitely/not/here"])
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_suppression_comments_respected(self, capsys):
        code = main(
            ["lint", str(LINT_FIXTURES / "suppression" / "suppressed.py")]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "4e9" in out  # unsuppressed literal still reported
        assert "1e9" not in out  # targeted ignore honored

    def test_list_rules_exits_zero(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 14
        assert {line.split("[")[1].split("]")[0] for line in lines} == {
            "units", "determinism", "api-hygiene",
        }

    def test_baseline_options_are_unknown_arguments(self, capsys):
        # one way to run: every rule, the text report, and nothing
        # absorbs a finding (no baseline, selection or JSON output)
        for option in ("--baseline", "--write-baseline", "--select",
                       "--ignore", "--format"):
            with pytest.raises(SystemExit) as exit_info:
                main(["lint", option, "x"])
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_default_path_is_src_and_clean(self, capsys, monkeypatch):
        monkeypatch.chdir(Path(__file__).resolve().parents[1])
        assert main(["lint"]) == 0
        assert "0 findings" in capsys.readouterr().out


class TestObsCommands:
    """--trace on figure commands and the obs report reader."""

    def _journal(self, tmp_path, errors=0):
        from repro.obs.journal import JournalWriter

        trace = tmp_path / "trace"
        trace.mkdir()
        with JournalWriter(trace / "journal.jsonl", worker=1) as journal:
            journal.write(
                "run_finished", item=0, scenario="s", seed=0,
                wall_s=0.5, sim_time_s=0.01, energy_j=2.0,
            )
            for i in range(errors):
                journal.write(
                    "worker_error", scenario="s", seed=i,
                    error_type="ExperimentError", error="boom",
                )
        return trace

    def test_trace_flag_writes_journal(self, capsys, tmp_path):
        trace = tmp_path / "t"
        code = main([
            "fig1", "--bytes", "2000000", "--reps", "1",
            "--trace", str(trace),
        ])
        assert code == 0
        assert (trace / "journal.jsonl").exists()
        assert "trace written to" in capsys.readouterr().out

    def test_report_healthy_journal_exits_zero(self, capsys, tmp_path):
        trace = self._journal(tmp_path)
        assert main(["obs", "report", str(trace)]) == 0
        assert "1 runs finished" in capsys.readouterr().out

    def test_report_worker_errors_exit_one(self, capsys, tmp_path):
        trace = self._journal(tmp_path, errors=2)
        assert main(["obs", "report", str(trace)]) == 1
        assert "UNHEALTHY" in capsys.readouterr().out

    def test_report_json_format(self, capsys, tmp_path):
        trace = self._journal(tmp_path)
        assert main(["obs", "report", "--format", "json", str(trace)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["runs_finished"] == 1

    def test_report_accepts_journal_file_directly(self, tmp_path):
        trace = self._journal(tmp_path)
        assert main(["obs", "report", str(trace / "journal.jsonl")]) == 0

    def test_report_missing_journal_exits_two(self, capsys, tmp_path):
        assert main(["obs", "report", str(tmp_path / "absent")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_report_empty_journal_exits_two(self, capsys, tmp_path):
        trace = tmp_path / "trace"
        trace.mkdir()
        (trace / "journal.jsonl").write_text("")
        assert main(["obs", "report", str(trace)]) == 2
        err = capsys.readouterr().err
        assert "empty" in err
        assert "Traceback" not in err

    def test_report_tolerates_torn_final_line(self, capsys, tmp_path):
        # A journal whose last line was cut mid-write (killed sweep):
        # the unterminated tail is a write in progress, not corruption,
        # so the report still renders from the committed events.
        trace = self._journal(tmp_path)
        with (trace / "journal.jsonl").open("a") as handle:
            handle.write('{"event": "run_fini')
        assert main(["obs", "report", str(trace)]) == 0
        captured = capsys.readouterr()
        assert "1 runs finished" in captured.out
        assert "Traceback" not in captured.err

    def test_report_bad_terminated_line_exits_two(self, capsys, tmp_path):
        # A *terminated* unparseable line is real corruption, not a torn
        # tail — that still fails loudly.
        trace = self._journal(tmp_path)
        with (trace / "journal.jsonl").open("a") as handle:
            handle.write('{"event": "run_fini\n')
        assert main(["obs", "report", str(trace)]) == 2
        err = capsys.readouterr().err
        assert "bad journal line" in err
        assert "Traceback" not in err

    def test_report_flags_killed_sweep_as_incomplete(self, capsys, tmp_path):
        # batch_started without its batch_finished: the coordinator was
        # killed mid-sweep, so the journal must not report healthy.
        from repro.obs.journal import JournalWriter

        trace = tmp_path / "killed"
        trace.mkdir()
        with JournalWriter(trace / "journal.jsonl", worker=1) as journal:
            journal.write("batch_started", items=2, backend="serial", cache=False)
            journal.write("run_started", item=0, scenario="s", seed=0)
            journal.write(
                "run_finished", item=0, scenario="s", seed=0,
                wall_s=0.5, sim_time_s=0.01, energy_j=2.0,
            )
            journal.write("run_started", item=1, scenario="s", seed=1)
        assert main(["obs", "report", str(trace)]) == 1
        out = capsys.readouterr().out
        assert "INCOMPLETE" in out
        assert "1 run(s) still in flight" in out


class TestObsTimeline:
    """The obs timeline telemetry renderer."""

    def _telemetry(self, tmp_path):
        from repro.obs.telemetry import TELEMETRY_FILENAME, TelemetryWriter
        from repro.sim.probe import CWND_CHANNEL, TimeSeriesProbeSink

        trace = tmp_path / "trace"
        trace.mkdir()
        sink = TimeSeriesProbeSink()
        sink.sample(0.0, CWND_CHANNEL, "flow-1", 14600.0)
        sink.sample(0.5, CWND_CHANNEL, "flow-1", 29200.0)
        sink.sample(0.0, CWND_CHANNEL, "flow-2", 14600.0)
        with TelemetryWriter(trace / TELEMETRY_FILENAME) as writer:
            writer.write_sink(sink, "s", 0)
        return trace

    def test_text_format_lists_streams(self, capsys, tmp_path):
        trace = self._telemetry(tmp_path)
        assert main(["obs", "timeline", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "2 streams" in out
        assert "cwnd_bytes" in out
        assert "flow-1" in out

    def test_samples_flag_prints_points(self, capsys, tmp_path):
        trace = self._telemetry(tmp_path)
        assert main(["obs", "timeline", str(trace), "--samples", "2"]) == 0
        assert "14600" in capsys.readouterr().out

    def test_csv_format(self, capsys, tmp_path):
        trace = self._telemetry(tmp_path)
        assert main(["obs", "timeline", str(trace), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "scenario,seed,channel,entity,time_s,value"
        assert "s,0,cwnd_bytes,flow-1,0.0,14600.0" in lines

    def test_json_format(self, capsys, tmp_path):
        trace = self._telemetry(tmp_path)
        assert main(["obs", "timeline", str(trace), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert len(payload["streams"]) == 2

    def test_entity_filter_narrows_streams(self, capsys, tmp_path):
        trace = self._telemetry(tmp_path)
        code = main([
            "obs", "timeline", str(trace),
            "--entity", "flow-2", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [s["entity"] for s in payload["streams"]] == ["flow-2"]

    def test_no_match_exits_one(self, capsys, tmp_path):
        trace = self._telemetry(tmp_path)
        assert main([
            "obs", "timeline", str(trace), "--entity", "flow-9",
        ]) == 1
        assert "no telemetry streams match" in capsys.readouterr().err

    def test_missing_telemetry_exits_two(self, capsys, tmp_path):
        assert main(["obs", "timeline", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestObsBaselineCommands:
    """obs snapshot and the CI-gating obs diff."""

    def _trace(self, tmp_path, energy_j=2.0):
        from repro.obs.journal import JournalWriter

        trace = tmp_path / f"trace-{energy_j}"
        trace.mkdir()
        with JournalWriter(trace / "journal.jsonl", worker=1) as journal:
            for seed, scenario in ((0, "fig1-fair"), (1, "fig1-fsti")):
                journal.write(
                    "run_finished", item=seed, scenario=scenario, seed=seed,
                    wall_s=0.5, sim_time_s=0.01,
                    energy_j=energy_j if scenario == "fig1-fair" else 1.0,
                    counters={"retransmissions": 2, "bottleneck_drops": 4},
                )
        return trace

    def test_snapshot_to_stdout(self, capsys, tmp_path):
        trace = self._trace(tmp_path)
        assert main(["obs", "snapshot", str(trace)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["fig1-fair/energy_j"] == 2.0
        assert "fig1-fsti/savings_vs_fair_percent" in payload["metrics"]

    def test_snapshot_writes_baseline_file(self, capsys, tmp_path):
        trace = self._trace(tmp_path)
        out = tmp_path / "base.json"
        assert main(["obs", "snapshot", str(trace), "-o", str(out)]) == 0
        assert "wrote baseline" in capsys.readouterr().out
        assert json.loads(out.read_text())["version"] == 1

    def test_snapshot_empty_journal_exits_two(self, capsys, tmp_path):
        trace = tmp_path / "t"
        trace.mkdir()
        (trace / "journal.jsonl").write_text("")
        assert main(["obs", "snapshot", str(trace)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_diff_against_self_baseline_exits_zero(self, capsys, tmp_path):
        trace = self._trace(tmp_path)
        base = tmp_path / "base.json"
        main(["obs", "snapshot", str(trace), "-o", str(base)])
        capsys.readouterr()
        assert main(["obs", "diff", str(base), str(trace)]) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_diff_perturbed_metric_exits_one(self, capsys, tmp_path):
        # The acceptance gate: a metric drifting beyond its tolerance
        # must fail the command.
        base = tmp_path / "base.json"
        main(["obs", "snapshot", str(self._trace(tmp_path)), "-o", str(base)])
        capsys.readouterr()
        drifted = self._trace(tmp_path, energy_j=2.1)  # 5% >> 1e-4
        assert main(["obs", "diff", str(base), str(drifted)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "DRIFT" in out

    def test_diff_tolerance_override_can_absorb_drift(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        main(["obs", "snapshot", str(self._trace(tmp_path)), "-o", str(base)])
        capsys.readouterr()
        drifted = self._trace(tmp_path, energy_j=2.1)
        code = main([
            "obs", "diff", str(base), str(drifted),
            "--tolerance", "energy_j=0.1",
            "--tolerance", "savings_vs_fair_percent=1.0",
        ])
        assert code == 0

    def test_diff_bad_tolerance_exits_two(self, capsys, tmp_path):
        trace = self._trace(tmp_path)
        base = tmp_path / "base.json"
        main(["obs", "snapshot", str(trace), "-o", str(base)])
        capsys.readouterr()
        assert main([
            "obs", "diff", str(base), str(trace),
            "--tolerance", "energy_j",
        ]) == 2
        assert "bad --tolerance" in capsys.readouterr().err

    def test_diff_missing_baseline_exits_two(self, capsys, tmp_path):
        trace = self._trace(tmp_path)
        assert main([
            "obs", "diff", str(tmp_path / "absent.json"), str(trace),
        ]) == 2
        assert "no baseline" in capsys.readouterr().err


class TestErrorBoundary:
    """main() is the one place library errors become exit codes."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["obs", "report", "{missing}"],
            ["obs", "timeline", "{missing}"],
            ["obs", "snapshot", "{missing}"],
            ["obs", "diff", "{missing}.json", "{missing}"],
            ["obs", "watch", "--once", "{missing}"],
            ["fig1", "--abort-on-drift", "{missing}.json"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_missing_inputs_exit_two_with_error_line(
        self, capsys, tmp_path, argv
    ):
        missing = str(tmp_path / "absent")
        code = main([arg.format(missing=missing) for arg in argv])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig1", "--reps", "0"],
            ["fig1", "--bytes", "0"],
            ["fig2", "--reps", "0"],
            ["workload", "--load", "0"],
            ["mptcp", "--bytes", "1"],
            ["theorem", "--flows", "0"],
        ],
        ids=" ".join,
    )
    def test_library_errors_exit_one_with_error_line(self, capsys, argv):
        # ExperimentError/AnalysisError from the figure drivers and the
        # theorem check: one stderr line, no traceback
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--bytes", "400000", "--reps", "1", "-o", "{dir}/r.md"],
            ["grid", "--bytes", "1000000", "--reps", "1", "--json", "{dir}/g.json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_output_exits_two_with_error_line(
        self, capsys, tmp_path, argv
    ):
        # an output file in a missing directory: a traceback before
        # main() caught OSError
        missing = str(tmp_path / "no" / "such" / "dir")
        assert main([arg.format(dir=missing) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert missing in captured.err

    def test_abort_of_a_command_without_a_drift_gate_exits_three(
        self, capsys, tmp_path
    ):
        # fig2 has no --abort-on-drift and no handler of its own: the
        # operator's flag file still ends it with the abort exit code
        # (a traceback before the boundary moved into main()).
        trace = tmp_path / "trace"
        trace.mkdir()
        (trace / "abort.requested").write_text("operator stop\n")
        code = main(["fig2", "--reps", "1", "--trace", str(trace)])
        assert code == 3
        assert "operator stop" in capsys.readouterr().err


class TestObsWatchCommand:
    """greenenvy obs watch: one-shot snapshots of a traced sweep."""

    def _trace(self, tmp_path, aborted=False):
        from repro.obs.journal import JournalWriter

        trace = tmp_path / "trace"
        trace.mkdir()
        with JournalWriter(trace / "journal.jsonl", worker=1) as journal:
            journal.write("batch_started", items=1, backend="serial")
            if aborted:
                journal.write(
                    "batch_aborted", items=1, completed=0,
                    reason="drift vs baseline: s/energy_j",
                )
            else:
                journal.write("run_started", item=0, scenario="s", seed=0)
                journal.write(
                    "run_finished", item=0, scenario="s", seed=0,
                    wall_s=0.5, sim_time_s=0.01, energy_j=2.0,
                )
                journal.write(
                    "batch_finished", items=1, executed=1, cache_hits=0
                )
        return trace

    def test_watch_once_json(self, capsys, tmp_path):
        trace = self._trace(tmp_path)
        assert main(["obs", "watch", "--once", "--json", str(trace)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["items_total"] == 1
        assert payload["complete"] is True

    def test_watch_once_text(self, capsys, tmp_path):
        trace = self._trace(tmp_path)
        assert main(["obs", "watch", "--once", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "1/1 items" in out
        assert "complete" in out

    def test_watch_aborted_trace_exits_one(self, capsys, tmp_path):
        trace = self._trace(tmp_path, aborted=True)
        assert main(["obs", "watch", "--once", "--json", str(trace)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["aborted"] is True
        assert "drift vs baseline" in payload["abort_reason"]

    def test_watch_missing_trace_exits_two(self, capsys, tmp_path):
        code = main(["obs", "watch", "--once", str(tmp_path / "absent")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_abort_on_drift_requires_baseline(self, capsys, tmp_path):
        trace = self._trace(tmp_path)
        code = main(["obs", "watch", "--once", "--abort-on-drift", str(trace)])
        assert code == 2
        assert "--abort-on-drift needs --baseline" in capsys.readouterr().err


class TestAbortOnDrift:
    """--abort-on-drift: mid-run gating with its own exit code."""

    FIG1 = ["fig1", "--bytes", "400000", "--reps", "2"]

    @staticmethod
    def _drifting_baseline(tmp_path, argv):
        """A baseline of ``argv``'s sweep with a regression injected: it
        remembers half the energy every scenario actually burns."""
        trace = tmp_path / "baseline-trace"
        assert main(argv + ["--trace", str(trace)]) == 0
        baseline = tmp_path / "baseline.json"
        assert main([
            "obs", "snapshot", str(trace), "-o", str(baseline),
        ]) == 0
        doc = json.loads(baseline.read_text())
        for key in doc["metrics"]:
            if key.endswith("/energy_j"):
                doc["metrics"][key] /= 2
        baseline.write_text(json.dumps(doc))
        return baseline

    def test_fig1_exits_three_on_injected_regression(self, capsys, tmp_path):
        baseline = self._drifting_baseline(tmp_path, self.FIG1)
        capsys.readouterr()
        code = main(self.FIG1 + ["--abort-on-drift", str(baseline)])
        assert code == 3
        captured = capsys.readouterr()
        assert "sweep aborted after" in captured.err
        assert "drift vs baseline" in captured.err
        assert "REGRESSED" in captured.out

    def test_drifting_cache_hits_abort_before_any_fresh_run(
        self, capsys, tmp_path
    ):
        # The baseline's own run warms the cache, so the gated rerun is
        # all hits: the gate sees them before anything runs, and every
        # hit is kept as finished work.
        argv = [
            "fig1", "--bytes", "400000", "--reps", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        baseline = self._drifting_baseline(tmp_path, argv)
        trace = tmp_path / "gated"
        code = main(argv + [
            "--trace", str(trace), "--abort-on-drift", str(baseline),
        ])
        assert code == 3
        events = read_journal(trace)
        assert not [e for e in events if e["event"] == "run_started"]
        hits = [e for e in events if e["event"] == "cache_hit"]
        [aborted] = [e for e in events if e["event"] == "batch_aborted"]
        [swept] = [e for e in events if e["event"] == "sweep_aborted"]
        assert aborted["completed"] == aborted["items"] == len(hits) == 10
        assert swept["grid_points"] == 10
        assert "drift vs baseline" in capsys.readouterr().err

    def test_traced_pooled_abort_journals_the_reason(self, capsys, tmp_path):
        baseline = self._drifting_baseline(tmp_path, self.FIG1)
        trace = tmp_path / "gated"
        code = main(self.FIG1 + [
            "--jobs", "2", "--trace", str(trace),
            "--abort-on-drift", str(baseline),
        ])
        assert code == 3
        events = read_journal(trace)
        for kind in ("batch_aborted", "sweep_aborted"):
            [event] = [e for e in events if e["event"] == kind]
            assert event["reason"].startswith("drift vs baseline: "), event
        assert "drift vs baseline" in capsys.readouterr().err

    def test_drift_abort_leaves_no_flag_to_stop_the_rerun(
        self, capsys, tmp_path
    ):
        # An in-process abort writes no abort flag: the rerun into the
        # same trace directory, without the gate, runs to completion.
        baseline = self._drifting_baseline(tmp_path, self.FIG1)
        argv = self.FIG1 + ["--trace", str(tmp_path / "gated")]
        assert main(argv + ["--abort-on-drift", str(baseline)]) == 3
        assert not (tmp_path / "gated" / "abort.requested").exists()
        assert main(argv) == 0

    def test_watching_a_finished_drifted_trace_writes_no_flag(
        self, capsys, tmp_path
    ):
        # The watcher's gate drifts on a sweep that already ended: a
        # flag now would stop whatever runs next in the directory.
        baseline = self._drifting_baseline(tmp_path, self.FIG1)
        trace = tmp_path / "baseline-trace"
        capsys.readouterr()
        code = main([
            "obs", "watch", "--once", "--baseline", str(baseline),
            "--abort-on-drift", str(trace),
        ])
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out
        assert not (trace / "abort.requested").exists()

    def test_matching_baseline_runs_to_completion(self, capsys, tmp_path):
        trace = tmp_path / "trace"
        assert main(self.FIG1 + ["--trace", str(trace)]) == 0
        baseline = tmp_path / "baseline.json"
        main(["obs", "snapshot", str(trace), "-o", str(baseline)])
        capsys.readouterr()
        code = main(self.FIG1 + ["--abort-on-drift", str(baseline)])
        assert code == 0
        assert "max savings" in capsys.readouterr().out

    def test_pre_existing_abort_file_stops_a_traced_figure(
        self, capsys, tmp_path
    ):
        # The other half of the dual channel: no drift gate at all, just
        # the flag file an external watcher (or operator) dropped.
        trace = tmp_path / "trace"
        trace.mkdir()
        (trace / "abort.requested").write_text("operator stop\n")
        code = main([
            "fig1", "--bytes", "400000", "--reps", "1",
            "--trace", str(trace),
        ])
        assert code == 3
        assert "operator stop" in capsys.readouterr().err

    def test_abort_file_is_consumed_by_the_run_it_stops(
        self, capsys, tmp_path
    ):
        trace = tmp_path / "trace"
        trace.mkdir()
        (trace / "abort.requested").write_text("operator stop\n")
        argv = [
            "fig1", "--bytes", "400000", "--reps", "1",
            "--trace", str(trace),
        ]
        assert main(argv) == 3
        assert not (trace / "abort.requested").exists()
        assert main(argv) == 0
