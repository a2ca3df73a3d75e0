"""The api-hygiene family: mutable defaults, bare excepts, future import."""

from collections import Counter

HYGIENE = ["api-mutable-default", "api-bare-except", "api-missing-future"]


class TestBadFixture:
    def test_counts(self, lint):
        result = lint("hygiene/bad_hygiene.py", rules=HYGIENE)
        counts = Counter(f.rule for f in result.findings)
        assert counts["api-mutable-default"] == 3  # [], {}, set()
        assert counts["api-bare-except"] == 1
        assert counts["api-missing-future"] == 1

    def test_mutable_default_names_the_function(self, lint):
        result = lint("hygiene/bad_hygiene.py", rules=["api-mutable-default"])
        assert any("`collect`" in f.message for f in result.findings)
        assert any("`tally`" in f.message for f in result.findings)


class TestSchedModeLiterals:
    RULE = ["sched-no-mode-literals"]

    def test_bad_fixture_counts(self, lint):
        result = lint("hygiene/bad_sched_literals.py", rules=self.RULE)
        assert len(result.findings) == 4
        assert all(f.rule == "sched-no-mode-literals" for f in result.findings)

    def test_messages_name_the_literal(self, lint):
        result = lint("hygiene/bad_sched_literals.py", rules=self.RULE)
        assert any("'fair'" in f.message for f in result.findings)
        assert any("'srpt'" in f.message for f in result.findings)

    def test_allowed_spellings_clean(self, lint):
        assert lint("hygiene/sched_literals_ok.py", rules=self.RULE).clean

    def test_sched_package_exempt(self, lint):
        assert lint("hygiene/sched/in_package.py", rules=self.RULE).clean


class TestCleanFixture:
    def test_clean(self, lint):
        assert lint("hygiene/clean_hygiene.py", rules=HYGIENE).clean

    def test_docstring_only_modules_need_no_future_import(self, tmp_path):
        from repro.lint import run_lint

        stub = tmp_path / "doc_only.py"
        stub.write_text('"""Docstring only."""\n')
        assert run_lint([str(stub)]).clean
