"""simlint engine: file discovery, rule dispatch, suppression filtering,
and the text report.

Parsing happens once per file; rules see :class:`ModuleInfo` objects
plus a shared :class:`LintContext` for cross-module questions. Findings
on lines carrying a matching ``simlint: ignore[...]`` comment are
dropped here so individual rules stay comment-oblivious — and the
engine tracks which comments actually earned their keep, reporting
``unused-suppression`` for dead ones and ``unknown-suppression`` for
bracket lists naming rules that do not exist.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Set

from repro.lint.core import (
    Finding,
    LintContext,
    LintUsageError,
    ModuleInfo,
    Rule,
    SUPPRESS_ALL,
)
from repro.lint.rules import ALL_RULES

#: pseudo-rule reported when a target file does not parse
PARSE_ERROR_RULE = "parse-error"

#: pseudo-rule for a ``simlint: ignore`` comment that suppressed nothing
UNUSED_SUPPRESSION_RULE = "unused-suppression"

#: pseudo-rule for bracket lists naming rules that are not registered
UNKNOWN_SUPPRESSION_RULE = "unknown-suppression"

#: family shared by the engine's pseudo-findings
ENGINE_FAMILY = "engine"

#: directories never descended into during discovery
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}

#: files marking a project root for display-path purposes
_ROOT_MARKERS = ("pyproject.toml", ".git")


def iter_rules() -> List[Rule]:
    """All registered rules (stable order: by family, then name)."""
    return sorted(ALL_RULES, key=lambda r: (r.family, r.name))


def _iter_python_files(root: Path) -> Iterator[Path]:
    if root.is_file():
        yield root
        return
    for path in sorted(root.rglob("*.py")):
        if not any(part in _SKIP_DIRS for part in path.parts):
            yield path


def _anchor_for(root: Path) -> Path:
    """Directory display paths are made relative to.

    The nearest ancestor of the lint root carrying a project marker
    (``pyproject.toml`` or ``.git``), so ``src/repro/...`` paths come
    out identical no matter which directory the tool runs from — a CI
    run and a local run must agree on them. Falls back to
    the root's parent when no marker exists (e.g. fixture trees).
    """
    resolved = root.resolve()
    probe = resolved if resolved.is_dir() else resolved.parent
    for candidate in (probe, *probe.parents):
        if any((candidate / marker).exists() for marker in _ROOT_MARKERS):
            return candidate
    return probe.parent


def _display_path(path: Path, anchor: Path) -> str:
    """Path as printed in findings: relative to the project anchor."""
    try:
        return path.resolve().relative_to(anchor).as_posix()
    except ValueError:
        return path.as_posix()


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding]
    files_checked: int

    @property
    def clean(self) -> bool:
        return not self.findings


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


def _suppression_findings(
    module: ModuleInfo, used_lines: Set[int], known: Set[str]
) -> Iterator[Finding]:
    """Hygiene pseudo-findings for one module's ignore comments."""
    for line, rules in sorted(module.suppressions.items()):
        unknown = sorted(rules - known - {SUPPRESS_ALL})
        if unknown:
            yield Finding(
                path=module.display_path,
                line=line,
                col=1,
                rule=UNKNOWN_SUPPRESSION_RULE,
                family=ENGINE_FAMILY,
                message=(
                    f"simlint ignore comment names unknown rule(s): "
                    f"{', '.join(unknown)}"
                ),
            )
            continue
        if line not in used_lines:
            yield Finding(
                path=module.display_path,
                line=line,
                col=1,
                rule=UNUSED_SUPPRESSION_RULE,
                family=ENGINE_FAMILY,
                message=(
                    "simlint ignore comment suppresses nothing on this "
                    "line; remove it"
                ),
            )


def run_lint(paths: Iterable[str]) -> LintResult:
    """Lint every ``.py`` file under ``paths`` with every rule.

    A missing path raises :class:`LintUsageError`; an unparseable file
    surfaces as a ``parse-error`` finding rather than aborting the run.
    The engine also audits the suppression comments themselves: an
    ignore comment that suppressed nothing becomes
    ``unused-suppression``, and one naming a rule that does not exist
    becomes ``unknown-suppression``.
    """
    rules = iter_rules()
    files: List[Path] = []
    anchors: List[Path] = []
    for raw in paths:
        root = Path(raw)
        if not root.exists():
            raise LintUsageError(f"no such file or directory: {raw}")
        anchor = _anchor_for(root)
        for path in _iter_python_files(root):
            files.append(path)
            anchors.append(anchor)

    modules: List[ModuleInfo] = []
    findings: List[Finding] = []
    for path, anchor in zip(files, anchors):
        display = _display_path(path, anchor)
        try:
            modules.append(ModuleInfo.parse(path, display))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=display,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1),
                    rule=PARSE_ERROR_RULE,
                    family=ENGINE_FAMILY,
                    message=f"file does not parse: {exc.msg}",
                )
            )

    ctx = LintContext(modules)
    known = {rule.name for rule in rules}
    for module in modules:
        used_lines: Set[int] = set()
        for rule in rules:
            for finding in rule.check(module, ctx):
                if module.suppressed(finding.rule, finding.line):
                    used_lines.add(finding.line)
                else:
                    findings.append(finding)
        findings.extend(_suppression_findings(module, used_lines, known))

    return LintResult(findings=sorted(findings), files_checked=len(files))
