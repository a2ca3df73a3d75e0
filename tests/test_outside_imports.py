"""Every import under ``examples/`` and in the docs' code resolves.

Tier-1 does not collect that directory (``tests/test_examples.py`` runs
each script, which reaches only the imports its run executes), and no
test runs the ``python`` blocks of README.md or ``docs/*.md``. This
walks each file's syntax tree (function-local imports included) and
each block's, imports every ``repro`` module an example names and every
module a block names, and looks each imported name up on its module (a
package's lazy exports included), so a deleted module or export shows
here rather than when someone runs the example or copies the tutorial.
"""

import ast
import re
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "examples").rglob("*.py"))
#: the prose whose code a reader copies
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def python_blocks(path):
    """The syntax tree of each ``python`` fenced block of a markdown file."""
    text = path.read_text(encoding="utf-8")
    return [
        ast.parse(block, filename=str(path)) for block in PYTHON_BLOCK.findall(text)
    ]


def _is_repro(module):
    return module == "repro" or module.startswith("repro.")


def imports(tree):
    """``(line, module, name)`` per absolute import; ``name`` is None for
    a plain ``import x``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.extend(
                (node.lineno, node.module, alias.name) for alias in node.names
            )
    return found


def repro_imports(path):
    """:func:`imports` of a script, its ``repro`` ones only."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [found for found in imports(tree) if _is_repro(found[1])]


def unresolved(where, found):
    """``where:line: what`` for each import of ``found`` that fails."""
    failed = []
    for line, module_name, name in found:
        try:
            module = import_module(module_name)
        except ImportError as exc:
            failed.append(f"{where}:{line}: {module_name} ({exc})")
            continue
        if name is None or name == "*" or hasattr(module, name):
            continue
        try:  # ``from pkg import submodule``
            import_module(f"{module_name}.{name}")
        except ImportError:
            failed.append(f"{where}:{line}: {module_name}.{name}")
    return failed


def test_files_found():
    assert any(path.parent.name == "examples" for path in FILES)


def test_function_local_imports_are_seen(tmp_path):
    script = tmp_path / "script.py"
    script.write_text(
        "def main():\n"
        "    from repro.figures.incast import run_incast_sweep\n"
        "    import repro.cli\n",
        encoding="utf-8",
    )
    assert [(module, name) for _line, module, name in repro_imports(script)] == [
        ("repro.figures.incast", "run_incast_sweep"), ("repro.cli", None),
    ]


@pytest.mark.parametrize(
    "path", FILES, ids=lambda path: str(path.relative_to(ROOT))
)
def test_repro_imports_resolve(path):
    failed = unresolved(path.name, repro_imports(path))
    assert not failed, "\n".join(failed)


@pytest.mark.parametrize(
    "path",
    [path for path in DOCS if python_blocks(path)],
    ids=lambda path: str(path.relative_to(ROOT)),
)
def test_docs_imports_resolve(path):
    found = [each for tree in python_blocks(path) for each in imports(tree)]
    failed = unresolved(f"{path.name} (line in its block)", found)
    assert not failed, "\n".join(failed)
