"""Tests for ``greenenvy report``: its claim rows and markdown render."""

import pytest

from repro.figures.specs import REPORT, Claim, report_markdown, run_report


def claim(label):
    """A claim on a dict of values that holds above 10."""
    return Claim(label, lambda values: values[label], "{}".format,
                 "10", "§0", lambda value: value > 10)


class TestReportStructure:
    def make_report(self):
        sections = [(
            "section one",
            (claim("claim a"), claim("claim b")),
            lambda values: "raw table",
        )]
        return report_markdown({"claim a": 11, "claim b": 5}, sections)

    def test_counts(self):
        _, verdicts = self.make_report()
        assert len(verdicts) == 2
        assert sum(verdicts) == 1

    def test_render_contains_everything(self):
        text, _ = self.make_report()
        assert text.startswith("# Green With Envy")
        assert "## section one" in text
        assert "1/2 paper claims" in text
        assert "claim a" in text and "✓" in text
        assert "claim b" in text and "✗" in text
        assert "```\nraw table\n```" in text

    def test_claim_row_marks(self):
        text, _ = self.make_report()
        assert "| claim a | 10 | 11 | ✓ |" in text
        assert "| claim b | 10 | 5 | ✗ |" in text

    def test_section_all_ok(self):
        section = ("s", (claim("x"),), None)
        assert all(report_markdown({"x": 11}, [section])[1])
        section = ("s", (claim("x"), claim("y")), None)
        assert not all(report_markdown({"x": 11, "y": 5}, [section])[1])

    def test_unmeasurable_value_fails_and_prints_n_a(self):
        from repro.errors import AnalysisError

        def undefined(values):
            raise AnalysisError("constant series")

        tolerant = Claim("c", undefined, "{}".format, "1", "§0", bool)
        assert tolerant.check({}) == ("n/a", False)
        print_only = Claim("c", undefined, "{}".format, "1", "§0")
        assert print_only.check({}) == ("n/a", True)

    def test_every_report_claim_has_a_tolerance(self):
        assert all(c.holds is not None for _, claims, _ in REPORT for c in claims)
        assert sum(len(claims) for _, claims, _ in REPORT) == 8


class TestQuickReport:
    @pytest.fixture(scope="class")
    def report(self):
        # 8 MB is the smallest size at which the baseline's loss churn is
        # in steady state (below that its energy penalty hasn't built up)
        return report_markdown(run_report(8_000_000, repetitions=1, seed=0))

    def test_all_claims_reproduce(self, report):
        _, verdicts = report
        assert all(verdicts)

    def test_covers_the_headline_sections(self, report):
        titles = " ".join(title for title, _, _ in REPORT)
        assert "Theorem 1" in titles
        assert "Figure 1" in titles
        assert "SRPT" in titles
        text, _ = report
        assert all(f"## {title}" in text for title, _, _ in REPORT)

    def test_renders_markdown(self, report):
        text, _ = report
        assert text.startswith("# ")
        assert "claims reproduced" in text
        assert text.count("```") == 4
