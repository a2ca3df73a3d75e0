"""Finding reporters: human text and machine JSON.

The JSON schema is versioned and consumed by ``tests/lint`` and any CI
annotation tooling; bump ``SCHEMA_VERSION`` on breaking changes.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict

from repro.lint.engine import LintResult

SCHEMA_VERSION = 1


def render_text(result: LintResult) -> str:
    """One ``path:line:col: rule: message`` line per finding + summary."""
    lines = [finding.format() for finding in result.findings]
    if result.findings:
        by_rule = Counter(f.rule for f in result.findings)
        breakdown = ", ".join(
            f"{rule}: {count}" for rule, count in sorted(by_rule.items())
        )
        lines.append("")
        lines.append(
            f"{len(result.findings)} finding"
            f"{'s' if len(result.findings) != 1 else ''} "
            f"in {result.files_checked} files ({breakdown})"
        )
    else:
        lines.append(f"clean: {result.files_checked} files, 0 findings")
    return "\n".join(lines)


def to_json_dict(result: LintResult) -> Dict[str, Any]:
    """The JSON-reporter payload as a plain dict."""
    return {
        "version": SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "finding_count": len(result.findings),
        "rules_run": list(result.rules_run),
        "counts_by_rule": dict(
            sorted(Counter(f.rule for f in result.findings).items())
        ),
        "findings": [finding.to_dict() for finding in result.findings],
    }


def render_json(result: LintResult) -> str:
    """Stable, indented JSON for CI consumption."""
    return json.dumps(to_json_dict(result), indent=2, sort_keys=True)
