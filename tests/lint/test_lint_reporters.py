"""The text report: one line per finding, then a summary."""

from repro.lint import render_text


class TestText:
    def test_clean_summary(self, lint):
        result = lint("units/clean_units.py")
        text = render_text(result)
        assert "clean: 1 files, 0 findings" in text

    def test_findings_render_one_per_line_with_summary(self, lint):
        result = lint("hygiene/bad_hygiene.py", rules=["api-bare-except"])
        text = render_text(result)
        lines = text.splitlines()
        assert lines[0].count(":") >= 3  # path:line:col: rule: message
        assert "api-bare-except: 1" in lines[-1]
        assert "1 finding in 1 files" in lines[-1]
