"""Data model shared by the simlint engine and its rules.

A :class:`ModuleInfo` is one parsed source file plus everything a rule
needs to inspect it cheaply, each built once per file: the AST, its
nodes as a flat tuple, a parent map (stdlib ``ast`` has no parent
pointers), the source lines, and per-line suppression sets.
Rules are tiny classes producing :class:`Finding` values; the engine in
:mod:`repro.lint.engine` owns file discovery and cross-module context.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, Union

#: a ``simlint: ignore[rule-a,rule-b]`` comment suppresses those rules
#: on the line; a bare ``simlint: ignore`` suppresses every rule there.
_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\- ]+)\])?"
)

#: wildcard stored for blanket suppressions
SUPPRESS_ALL = "*"

#: the line breaks ``ast`` counts ``lineno`` by; ``str.splitlines`` also
#: breaks on ``\f``/``\x1c``, which the tokenizer treats as whitespace
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


class LintUsageError(Exception):
    """Invalid invocation (a missing path); CLI exit code 2."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    family: str
    message: str

    def format(self) -> str:
        """Render as the conventional ``path:line:col: rule: message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


def parse_suppressions(lines: Sequence[str]) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line numbers to the rule names suppressed there."""
    suppressions: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressions[lineno] = frozenset((SUPPRESS_ALL,))
        else:
            suppressions[lineno] = frozenset(
                name.strip() for name in rules.split(",") if name.strip()
            )
    return suppressions


@dataclass
class ModuleInfo:
    """One parsed source file, ready for rules to inspect."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    #: the source split by ``ast``'s rule, without line endings
    lines: Tuple[str, ...]
    #: every node of ``tree``, breadth-first (the order of ``ast.walk``);
    #: rules that scan the whole module iterate this, not a fresh walk
    nodes: Tuple[ast.AST, ...]
    #: child -> parent over the whole tree
    parents: Dict[ast.AST, ast.AST]
    suppressions: Dict[int, FrozenSet[str]]

    @classmethod
    def parse(cls, path: Path, display_path: str) -> "ModuleInfo":
        """Read and parse ``path``; raises ``SyntaxError`` on bad source."""
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        lines = tuple(_LINE_BREAK.split(source))
        nodes: List[ast.AST] = [tree]
        parents: Dict[ast.AST, ast.AST] = {}
        for node in nodes:  # grows while iterated: one pass, no recursion
            for child in ast.iter_child_nodes(node):
                parents[child] = node
                nodes.append(child)
        return cls(
            path=path,
            display_path=display_path,
            source=source,
            tree=tree,
            lines=lines,
            nodes=tuple(nodes),
            parents=parents,
            suppressions=parse_suppressions(lines),
        )

    # -- path helpers ------------------------------------------------------

    @property
    def parts(self) -> Tuple[str, ...]:
        """Posix components of the display path (for scope decisions)."""
        return tuple(self.display_path.split("/"))

    @property
    def filename(self) -> str:
        return self.parts[-1]

    def in_directory(self, name: str) -> bool:
        """Whether any directory component equals ``name``."""
        return name in self.parts[:-1]

    # -- AST helpers -------------------------------------------------------

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def segment(self, node: Union[ast.expr, ast.stmt]) -> str:
        """Source text of ``node``.

        A single-line node is a slice of its line (``col_offset`` counts
        UTF-8 bytes); ``ast.get_source_segment`` re-splits the whole
        source on every call, so only multi-line nodes go through it.
        """
        if node.lineno != node.end_lineno:
            return ast.get_source_segment(self.source, node) or ""
        line = self.lines[node.lineno - 1].encode("utf-8")
        return line[node.col_offset:node.end_col_offset].decode("utf-8")

    # -- suppression -------------------------------------------------------

    def suppressed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is suppressed on ``line`` by a simlint comment."""
        rules = self.suppressions.get(line)
        if rules is None:
            return False
        return SUPPRESS_ALL in rules or rule in rules


class Rule:
    """Base class for simlint rules.

    Subclasses set ``name``/``family``/``description`` and implement
    :meth:`check`, yielding findings (suppression filtering happens in
    the engine, so rules stay oblivious to comments).
    """

    name: str = ""
    family: str = ""
    description: str = ""

    def check(self, module: ModuleInfo, ctx: "LintContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``'s location."""
        return Finding(
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.name,
            family=self.family,
            message=message,
        )


def dotted_name(node: ast.AST) -> Optional[str]:
    """Flatten ``a.b.c`` attribute chains to a string, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


class LintContext:
    """Cross-module state shared by all rules in one lint run.

    Built once per run from the full module set so a rule can answer
    the one question a single file cannot: the parameter names of
    module-level functions (for positional-argument unit checks).
    """

    def __init__(self, modules: List[ModuleInfo]):
        self.modules = modules
        self._signatures: Optional[Dict[str, Optional[List[str]]]] = None

    @property
    def signatures(self) -> Dict[str, Optional[List[str]]]:
        """Bare name -> positional parameter names; ``None`` if ambiguous
        (defined with different signatures in multiple modules)."""
        if self._signatures is None:
            table: Dict[str, Optional[List[str]]] = {}
            for module in self.modules:
                for node in module.tree.body:
                    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    params = [a.arg for a in node.args.posonlyargs + node.args.args]
                    if node.name in table and table[node.name] != params:
                        table[node.name] = None
                    else:
                        table[node.name] = params
            self._signatures = table
        return self._signatures
