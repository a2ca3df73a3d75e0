"""Mutation sites: where the five operators apply, and what each edit writes.

A site is one edit of one source span. Its id, ``path:line:col:operator``
(``col`` is the 0-based character column, as ``ast`` counts it), depends
only on the file's text, so two enumerations of one tree give the same
ids in the same order.
"""

from __future__ import annotations

import ast
import bisect
import re
from dataclasses import dataclass
from pathlib import Path

# swap a comparison: each operator for its complement
COMPARE_SWAPS = {
    ast.Lt: ("<", ">="),
    ast.LtE: ("<=", ">"),
    ast.Gt: (">", "<="),
    ast.GtE: (">=", "<"),
    ast.Eq: ("==", "!="),
    ast.NotEq: ("!=", "=="),
    ast.Is: ("is", "is not"),
    ast.IsNot: ("is not", "is"),
    ast.In: ("in", "not in"),
    ast.NotIn: ("not in", "in"),
}


@dataclass(frozen=True)
class Site:
    path: str  # relative to the tree's root, forward slashes
    line: int
    col: int
    operator: str
    function: str  # qualified name of the enclosing def, "<module>" outside one
    import_time: bool  # runs when the module or a class body does
    edit: tuple[int, int]  # character offsets of the replaced text
    replacement: str

    @property
    def id(self) -> str:
        return f"{self.path}:{self.line}:{self.col}:{self.operator}"


def perturb(value: int | float) -> int | float:
    """The constant operator's bounded step: n -> n+1, x -> 2x (0.0 -> 1.0)."""
    if isinstance(value, int):
        return value + 1
    return 2 * value if value else 1.0


class _Finder(ast.NodeVisitor):
    def __init__(self, path: str, text: str) -> None:
        self.path, self.text, self.sites = path, text, []
        # the offset each line starts at (ast counts lines by "\n" alone)
        self.starts = [0] + [match.end() for match in re.finditer("\n", text)] + [len(text) + 1]
        self.scope: list[str] = []
        self.in_function = 0

    def _offset(self, line: int, byte_col: int) -> int:
        start = self.starts[line - 1]
        line_text = self.text[start : self.starts[line]]
        return start + len(line_text.encode("utf-8")[:byte_col].decode("utf-8"))

    def _span(self, node: ast.AST) -> tuple[int, int]:
        return self._offset(node.lineno, node.col_offset), self._offset(node.end_lineno, node.end_col_offset)

    def _add(self, operator: str, at: int, edit: tuple[int, int], replacement: str) -> None:
        line = bisect.bisect_right(self.starts, at)
        function = ".".join(self.scope) or "<module>"
        self.sites.append(
            Site(self.path, line, at - self.starts[line - 1], operator, function,
                 not self.in_function, edit, replacement)
        )

    # defaults and decorators run when the enclosing body does
    def _visit_def(self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> None:
        for outer in [*getattr(node, "decorator_list", []), node.args]:
            self.visit(outer)
        self.scope.append(getattr(node, "name", "<lambda>"))
        self.in_function += 1
        for statement in node.body if isinstance(node.body, list) else [node.body]:
            self.visit(statement)
        self.in_function -= 1
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _visit_def

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for outer in [*node.decorator_list, *node.bases, *node.keywords]:
            self.visit(outer)
        self.scope.append(node.name)
        for statement in node.body:
            self.visit(statement)
        self.scope.pop()

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        """Positions inside an f-string are not reliable before 3.12: no sites."""

    def visit_Compare(self, node: ast.Compare) -> None:
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            gap = self._span(left)[1], self._span(right)[0]
            spelling, replacement = COMPARE_SWAPS[type(op)]
            pattern = re.escape(spelling).replace(r"\ ", r"\s+")
            if spelling[0].isalpha():
                pattern = rf"\b{pattern}\b"
            match = re.compile(pattern).search(self.text, *gap)
            if match is not None:
                self._add("compare", match.start(), match.span(), replacement)
            left = right
        self.generic_visit(node)

    def visit_UnaryOp(self, node: ast.UnaryOp) -> None:
        if isinstance(node.op, ast.Not):
            start = self._span(node)[0]
            self._add("not", start, (start, self._span(node.operand)[0]), "")
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        value = node.value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            span = self._span(node)
            if ast.literal_eval(self.text[span[0] : span[1]]) == value:
                self._add("constant", span[0], span, repr(perturb(value)))

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("max", "min")
            and len(node.args) >= 2
            and not node.keywords
            and not any(isinstance(arg, ast.Starred) for arg in node.args)
        ):
            # one mutant per argument; its site is the argument that stays
            for arg in node.args:
                start, end = self._span(arg)
                self._add("maxmin", start, self._span(node), f"({self.text[start:end]})")
        self.generic_visit(node)

    def _visit_assign(self, node: ast.Assign | ast.AugAssign | ast.AnnAssign) -> None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if self.in_function and any(_assigns_self(target) for target in targets):
            span = self._span(node)
            # keep the line count: later line numbers (and ids) stay put
            newlines = self.text.count("\n", *span)
            self._add("self", span[0], span, "pass" + "\n" * newlines)
        self.generic_visit(node)

    visit_Assign = visit_AugAssign = visit_AnnAssign = _visit_assign


def _assigns_self(target: ast.AST) -> bool:
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_assigns_self(element) for element in target.elts)
    return (
        isinstance(target, (ast.Attribute, ast.Subscript))
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    )


def file_sites(root: Path, relative: str) -> list[Site]:
    text = (root / relative).read_text(encoding="utf-8")
    finder = _Finder(relative, text)
    finder.visit(ast.parse(text, filename=relative))
    return sorted(finder.sites, key=lambda site: (site.line, site.col, site.operator))


def enumerate_sites(root: Path, package: str) -> list[Site]:
    """Every site under ``src/`` for a dotted package name, file by file."""
    directory = root / "src" / package.replace(".", "/")
    return [
        site
        for path in sorted(directory.rglob("*.py"))
        for site in file_sites(root, path.relative_to(root).as_posix())
    ]


def apply(text: str, site: Site) -> str:
    """``text`` with ``site``'s edit made."""
    start, end = site.edit
    return text[:start] + site.replacement + text[end:]
