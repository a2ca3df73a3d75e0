"""The determinism family: entropy escapes and hash-order iteration."""

from collections import Counter

from repro.lint.rules.determinism import SIM_DIRECTORIES

DET = [
    "det-import-random",
    "det-global-rng",
    "det-wall-clock",
    "det-entropy",
    "det-process-identity",
    "det-set-iteration",
    "obs-no-feedback",
    "obs-probe-wall-clock",
]

#: the remedy obs-no-feedback gives for the profiling channel
PROFILING_REMEDY = "instrument against the repro.sim.profile protocol"


def _by_rule(result):
    return Counter(f.rule for f in result.findings)


class TestEntropyRules:
    def test_bad_fixture_trips_each_entropy_rule(self, lint):
        counts = _by_rule(lint("determinism/bad_entropy.py", select=DET))
        assert counts["det-import-random"] == 1
        assert counts["det-global-rng"] == 1
        assert counts["det-wall-clock"] == 2  # time.time() + from-import
        assert counts["det-entropy"] == 2  # os.urandom + uuid.uuid4

    def test_type_checking_import_is_allowed(self, lint):
        assert lint("determinism/clean_entropy.py", select=DET).clean

    def test_sim_rng_module_is_exempt(self, lint):
        assert lint("determinism/sim/rng.py", select=DET).clean


class TestProcessIdentity:
    """The executor-era rule: pids/thread ids must never feed cache
    keys or worker seed derivation."""

    def test_bad_fixture_trips_call_and_import_forms(self, lint):
        result = lint(
            "determinism/bad_process_identity.py",
            select=["det-process-identity"],
        )
        # os.getpid() call + threading.get_ident() call + from-import
        assert _by_rule(result)["det-process-identity"] == 3

    def test_clean_fixture_untouched(self, lint):
        assert lint(
            "determinism/clean_entropy.py", select=["det-process-identity"]
        ).clean

    def test_harness_sources_are_clean(self, lint):
        """The executor/cache layer itself must honor the rule."""
        from pathlib import Path

        repo_src = Path(__file__).resolve().parents[2] / "src" / "repro"
        from repro.lint import run_lint

        result = run_lint(
            [str(repo_src / "harness")], select=["det-process-identity"]
        )
        assert result.clean


class TestSetIteration:
    def test_fires_inside_sim_directory(self, lint):
        result = lint(
            "determinism/sim/bad_sets.py", select=["det-set-iteration"]
        )
        assert _by_rule(result)["det-set-iteration"] == 3

    def test_sorted_iteration_is_clean(self, lint):
        assert lint(
            "determinism/sim/clean_sets.py", select=["det-set-iteration"]
        ).clean

    def test_silent_outside_simulator_packages(self, lint):
        assert lint(
            "determinism/outside_scope.py", select=["det-set-iteration"]
        ).clean

    def test_fires_where_arrivals_and_plans_are_made(self, lint):
        """Flow order and start order are results as much as cwnd is."""
        for fixture in (
            "determinism/apps/bad_flow_order.py",
            "determinism/sched/bad_plan_order.py",
        ):
            result = lint(fixture, select=["det-set-iteration"])
            assert _by_rule(result)["det-set-iteration"] == 1, fixture

    def test_result_packages_honor_the_rule(self):
        from pathlib import Path

        from repro.lint import run_lint

        repo_src = Path(__file__).resolve().parents[2] / "src" / "repro"
        paths = [str(repo_src / d) for d in SIM_DIRECTORIES]
        assert run_lint(paths, select=["det-set-iteration"]).clean


class TestObsFeedback:
    """Observability is write-only: sim code must never import repro.obs."""

    def test_fires_on_every_import_form_inside_sim(self, lint):
        result = lint(
            "determinism/sim/bad_obs_feedback.py", select=["obs-no-feedback"]
        )
        # import repro.obs + from repro.obs import + from repro.obs.journal
        assert _by_rule(result)["obs-no-feedback"] == 3

    def test_harness_side_import_is_the_blessed_direction(self, lint):
        assert lint(
            "determinism/obs_outside_scope.py", select=["obs-no-feedback"]
        ).clean

    def test_fires_where_joules_and_plans_are_made(self, lint):
        """The energy model and the policies must not read tracing state."""
        for fixture in (
            "determinism/energy/bad_obs_import.py",
            "determinism/sched/bad_plan_order.py",
        ):
            result = lint(fixture, select=["obs-no-feedback"])
            assert _by_rule(result)["obs-no-feedback"] == 1, fixture

    def test_generic_imports_get_the_generic_remedy(self, lint):
        result = lint(
            "determinism/sim/bad_obs_feedback.py", select=["obs-no-feedback"]
        )
        for finding in result.findings:
            assert "`repro.obs`" in finding.message
            assert PROFILING_REMEDY not in finding.message

    def test_simulator_sources_honor_the_rule(self):
        """The shipped result-producing packages must themselves be clean."""
        from pathlib import Path

        from repro.lint import run_lint

        repo_src = Path(__file__).resolve().parents[2] / "src" / "repro"
        paths = [str(repo_src / d) for d in SIM_DIRECTORIES]
        result = run_lint(paths, select=["obs-no-feedback"])
        assert result.clean


class TestObsProfileSimImport:
    """Profiling's sharper edge of the write-only contract: sim code
    talks to repro.sim.profile, never to the obs-side collector. The
    rule of this name was folded into obs-no-feedback, which names the
    profiling module and gives the profiling remedy for these imports."""

    def test_fires_on_every_import_form_inside_sim(self, lint):
        result = lint(
            "determinism/sim/bad_profile_import.py",
            select=["obs-no-feedback"],
        )
        # import repro.obs.profile + from repro.obs import attrib +
        # from repro.obs.profile import ProfileCollector
        assert [f.message.split("`")[1] for f in result.findings] == [
            "repro.obs.profile", "repro.obs.attrib", "repro.obs.profile",
        ]
        assert all(PROFILING_REMEDY in f.message for f in result.findings)

    def test_generic_feedback_rule_also_fires(self, lint):
        """One rule, one finding per import: nothing fires twice."""
        result = lint("determinism/sim/bad_profile_import.py", select=DET)
        assert _by_rule(result) == {"obs-no-feedback": 3}

    def test_protocol_import_is_the_blessed_direction(self, lint):
        assert lint(
            "determinism/sim/clean_profile.py", select=["obs-no-feedback"]
        ).clean

    def test_silent_outside_simulator_packages(self, lint):
        # the obs layer itself imports these modules freely
        assert lint(
            "determinism/obs_outside_scope.py", select=["obs-no-feedback"]
        ).clean

    def test_simulator_sources_honor_the_rule(self):
        from pathlib import Path

        from repro.lint import run_lint

        repo_src = Path(__file__).resolve().parents[2] / "src" / "repro"
        paths = [str(repo_src / d) for d in ("sim", "net", "cc", "tcp")]
        result = run_lint(paths, select=["obs-no-feedback"])
        assert result.clean


class TestProbeWallClock:
    """Telemetry samples must be stamped with virtual time only."""

    def test_bad_fixture_trips_import_and_sample_forms(self, lint):
        result = lint(
            "determinism/bad_probe_clock.py", select=["obs-probe-wall-clock"]
        )
        # wall_clock + perf_clock imports in a sink-defining module, plus
        # three sample(<clock>(), ...) calls
        assert _by_rule(result)["obs-probe-wall-clock"] == 5

    def test_virtual_time_sink_is_clean(self, lint):
        assert lint(
            "determinism/clean_probe.py", select=["obs-probe-wall-clock"]
        ).clean

    def test_clock_helpers_fine_outside_sink_modules(self, lint):
        # obs_outside_scope-style code may use the journal's helpers as
        # long as it defines no probe sink
        assert lint(
            "determinism/obs_outside_scope.py",
            select=["obs-probe-wall-clock"],
        ).clean

    def test_shipped_probe_sources_honor_the_rule(self):
        from pathlib import Path

        from repro.lint import run_lint

        repo_src = Path(__file__).resolve().parents[2] / "src" / "repro"
        result = run_lint(
            [str(repo_src)], select=["obs-probe-wall-clock"]
        )
        assert result.clean
