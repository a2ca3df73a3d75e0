"""Reporter contracts: text and the versioned JSON schema."""

import json

from repro.lint import render_json, render_text
from repro.lint.reporters import SCHEMA_VERSION, to_json_dict


class TestText:
    def test_clean_summary(self, lint):
        result = lint("units/clean_units.py")
        text = render_text(result)
        assert "clean: 1 files, 0 findings" in text

    def test_findings_render_one_per_line_with_summary(self, lint):
        result = lint("hygiene/bad_hygiene.py", select=["api-bare-except"])
        text = render_text(result)
        lines = text.splitlines()
        assert lines[0].count(":") >= 3  # path:line:col: rule: message
        assert "api-bare-except: 1" in lines[-1]
        assert "1 finding in 1 files" in lines[-1]


class TestJson:
    def test_schema_fields(self, lint):
        result = lint("hygiene/bad_hygiene.py")
        payload = json.loads(render_json(result))
        assert payload["version"] == SCHEMA_VERSION
        assert set(payload) == {
            "version",
            "files_checked",
            "finding_count",
            "rules_run",
            "counts_by_rule",
            "findings",
        }
        assert payload["files_checked"] == 1
        assert payload["finding_count"] == len(payload["findings"])
        for finding in payload["findings"]:
            assert set(finding) == {
                "path", "line", "col", "rule", "family", "message",
            }
            assert isinstance(finding["line"], int)
            assert isinstance(finding["col"], int)

    def test_counts_by_rule_sum_matches(self, lint):
        result = lint("hygiene/bad_hygiene.py")
        payload = to_json_dict(result)
        assert sum(payload["counts_by_rule"].values()) == payload[
            "finding_count"
        ]

    def test_clean_run_payload(self, lint):
        payload = to_json_dict(lint("units/clean_units.py"))
        assert payload["finding_count"] == 0
        assert payload["findings"] == []
        assert payload["counts_by_rule"] == {}

    def test_json_is_stable(self, lint):
        result = lint("hygiene/bad_hygiene.py")
        assert render_json(result) == render_json(result)
