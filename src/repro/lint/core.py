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
    """Invalid invocation (unknown rule, missing path); CLI exit code 2."""


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

    def to_dict(self) -> Dict[str, Union[str, int]]:
        """JSON-reporter representation (stable schema, version 1)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "family": self.family,
            "message": self.message,
        }


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

    Built once per run from the full module set so rules can answer
    questions a single file cannot: which identifiers ``cc/registry.py``
    references, the CCA class hierarchy across ``cc/`` modules, and the
    parameter names of module-level functions (for positional-argument
    unit checks).
    """

    def __init__(self, modules: List[ModuleInfo]):
        self.modules = modules
        self._signatures: Optional[Dict[str, Optional[List[str]]]] = None
        self._registry_names: Optional[Dict[str, FrozenSet[str]]] = None
        self._cc_classes: Optional[Dict[str, Dict[str, "ClassFacts"]]] = None

    # -- function signature table -----------------------------------------

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

    # -- cc registry -------------------------------------------------------

    def _cc_dir_key(self, module: ModuleInfo) -> str:
        return "/".join(module.parts[:-1])

    @property
    def registry_names(self) -> Dict[str, FrozenSet[str]]:
        """Per-directory set of identifiers referenced in ``registry.py``."""
        if self._registry_names is None:
            table: Dict[str, FrozenSet[str]] = {}
            for module in self.modules:
                if module.filename != "registry.py":
                    continue
                names = set()
                for node in module.nodes:
                    if isinstance(node, ast.Name):
                        names.add(node.id)
                    elif isinstance(node, ast.ImportFrom):
                        for alias in node.names:
                            names.add(alias.asname or alias.name)
                table[self._cc_dir_key(module)] = frozenset(names)
            self._registry_names = table
        return self._registry_names

    # -- cc class graph ----------------------------------------------------

    @property
    def cc_classes(self) -> Dict[str, Dict[str, "ClassFacts"]]:
        """Per-``cc``-directory map of class name -> :class:`ClassFacts`."""
        if self._cc_classes is None:
            table: Dict[str, Dict[str, ClassFacts]] = {}
            for module in self.modules:
                if not module.in_directory("cc"):
                    continue
                per_dir = table.setdefault(self._cc_dir_key(module), {})
                for node in module.tree.body:
                    if isinstance(node, ast.ClassDef):
                        per_dir[node.name] = ClassFacts.from_node(node)
            self._cc_classes = table
        return self._cc_classes

    def cca_lineage(self, module: ModuleInfo, class_name: str) -> List["ClassFacts"]:
        """The class plus its in-package ancestors, root-last.

        Follows base-class names through the per-directory class table;
        external bases (not defined in the analyzed ``cc/`` modules) end
        the chain.
        """
        per_dir = self.cc_classes.get(self._cc_dir_key(module), {})
        lineage: List[ClassFacts] = []
        seen = set()
        name: Optional[str] = class_name
        while name is not None and name in per_dir and name not in seen:
            seen.add(name)
            facts = per_dir[name]
            lineage.append(facts)
            name = next(
                (base for base in facts.bases if base in per_dir), facts.bases[0]
            ) if facts.bases else None
        return lineage


@dataclass
class ClassFacts:
    """What the contract rules need to know about one class body."""

    name: str
    bases: List[str]
    assigned_names: FrozenSet[str]
    methods: FrozenSet[str]

    @classmethod
    def from_node(cls, node: ast.ClassDef) -> "ClassFacts":
        bases = []
        for base in node.bases:
            flat = dotted_name(base)
            if flat is not None:
                bases.append(flat.split(".")[-1])
        assigned = set()
        methods = set()
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        assigned.add(target.id)
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                    assigned.add(stmt.target.id)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.add(stmt.name)
        return cls(
            name=node.name,
            bases=bases,
            assigned_names=frozenset(assigned),
            methods=frozenset(methods),
        )
