"""Engine behavior: discovery, suppression, the src/ + examples/ gate."""

import ast
from pathlib import Path

import pytest

from repro.lint import LintUsageError, run_lint
from repro.lint.engine import (
    PARSE_ERROR_RULE,
    UNKNOWN_SUPPRESSION_RULE,
    UNUSED_SUPPRESSION_RULE,
    iter_rules,
)

from tests.conftest import count_calls

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRuleRegistry:
    def test_fourteen_rules_in_three_families(self):
        by_family = {}
        for rule in iter_rules():
            by_family.setdefault(rule.family, []).append(rule.name)
        assert by_family == {
            "units": [
                "units-call-mismatch",
                "units-raw-literal",
                "units-suffix-mismatch",
            ],
            "determinism": [
                "det-entropy",
                "det-global-rng",
                "det-import-random",
                "det-process-identity",
                "det-set-iteration",
                "det-wall-clock",
                "obs-no-feedback",
            ],
            "api-hygiene": [
                "api-bare-except",
                "api-missing-future",
                "api-mutable-default",
                "sched-no-mode-literals",
            ],
        }

    def test_rules_have_names_and_descriptions(self):
        for rule in iter_rules():
            assert rule.name and rule.family and rule.description

    def test_stable_order(self):
        keys = [(r.family, r.name) for r in iter_rules()]
        assert keys == sorted(keys)


class TestSelection:
    def test_missing_path_is_usage_error(self):
        with pytest.raises(LintUsageError, match="no such file"):
            run_lint(["definitely/not/here"])


class TestSuppression:
    def test_matching_and_blanket_comments_suppress(self, lint):
        result = lint("suppression/suppressed.py", rules=["units-raw-literal"])
        lines = sorted(f.line for f in result.findings)
        # 1e9 (targeted ignore) and 1024**3 (blanket ignore) are silenced;
        # the wrong-rule ignore and the bare literal are not
        assert len(lines) == 2
        messages = " ".join(f.message for f in result.findings)
        assert "2e9" in messages and "4e9" in messages

    def test_suppression_is_per_rule(self, lint):
        # an ignore[det-import-random] comment must not silence units rules
        result = lint("suppression/suppressed.py", rules=["units-raw-literal"])
        assert any("2e9" in f.message for f in result.findings)


class TestSuppressionHygiene:
    """Every run audits the ignore comments themselves."""

    def test_dead_comment_is_unused_suppression(self, lint):
        result = lint("suppression/stale.py")
        unused = [
            f for f in result.findings if f.rule == UNUSED_SUPPRESSION_RULE
        ]
        assert [f.line for f in unused] == [6]
        assert unused[0].family == "engine"
        assert "suppresses nothing" in unused[0].message

    def test_misspelled_rule_is_unknown_suppression(self, lint):
        result = lint("suppression/stale.py")
        unknown = [
            f for f in result.findings if f.rule == UNKNOWN_SUPPRESSION_RULE
        ]
        assert [f.line for f in unknown] == [7]
        assert "units-raw-litteral" in unknown[0].message
        # and the misspelled comment suppresses nothing: 2e9 still fires
        assert any("2e9" in f.message for f in result.findings)

    def test_working_comment_is_not_flagged(self, lint):
        result = lint("suppression/stale.py")
        assert not any(f.line == 5 for f in result.findings)


class TestDisplayPaths:
    """Finding paths anchor at the project root, not the CWD."""

    EXPECTED = "tests/lint/fixtures/engine/broken.py"

    def _parse_error_path(self, fixtures_dir):
        result = run_lint([str(fixtures_dir / "engine" / "broken.py")])
        assert len(result.findings) == 1
        return result.findings[0].path

    def test_path_from_repo_root(self, fixtures_dir, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert self._parse_error_path(fixtures_dir) == self.EXPECTED

    def test_path_is_cwd_independent(self, fixtures_dir, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert self._parse_error_path(fixtures_dir) == self.EXPECTED


class TestParseErrors:
    def test_broken_file_yields_parse_error_finding(self, lint):
        result = lint("engine/broken.py")
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.rule == PARSE_ERROR_RULE
        assert finding.family == "engine"
        assert "does not parse" in finding.message

    def test_broken_file_does_not_abort_the_run(self, lint):
        result = lint("engine/broken.py", "units/clean_units.py")
        assert result.files_checked == 2
        assert [f.rule for f in result.findings] == [PARSE_ERROR_RULE]


class TestCleanFixtures:
    def test_clean_fixtures_pass_every_rule(self, lint, clean_fixture_names):
        result = lint(*clean_fixture_names)
        assert result.clean, "\n".join(f.format() for f in result.findings)


class TestCost:
    """Exact cost gate (frames, not time): a file is split into lines
    once and its tree flattened once, whatever the number of literals
    and rules. Done per literal and per rule, those two are 85 % of a
    lint run over ``src/``."""

    def test_one_split_and_no_walk_per_rule(self, fixtures_dir):
        target = fixtures_dir / "units" / "bad_units.py"
        node_count = len(list(ast.walk(ast.parse(target.read_text()))))
        result, calls = count_calls(run_lint, [str(target)])
        assert len(iter_rules()) == 14 and result.findings
        # `ast.get_source_segment` re-splits the whole source per call
        assert calls.get(ast.get_source_segment.__code__, 0) == 0
        # a generator frame is entered once per node it yields: rules
        # iterate `ModuleInfo.nodes`, so all that is left are the
        # subtree walks of units-raw-literal's tolerance contexts
        assert calls.get(ast.walk.__code__, 0) < node_count


class TestSourceTreeGate:
    """The tier-1 gate: what ``make lint`` lints must lint clean."""

    def test_src_lints_clean(self):
        result = run_lint([str(REPO_ROOT / "src"), str(REPO_ROOT / "examples")])
        assert result.clean, "\n".join(f.format() for f in result.findings)
        assert result.files_checked > 110
