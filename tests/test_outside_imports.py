"""Every ``repro`` import under ``benchmarks/`` and ``examples/`` resolves.

Tier-1 collects neither directory, and many of their imports sit inside
a function body, where collecting a file would not reach them either.
This walks each file's syntax tree (function-local imports included),
imports every ``repro`` module named and looks up every imported name
through the package's lazy exports, so a deleted module or export shows
here rather than in a benchmark run.
"""

import ast
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for directory in ("benchmarks", "examples")
    for path in (ROOT / directory).rglob("*.py")
)


def _is_repro(module):
    return module == "repro" or module.startswith("repro.")


def repro_imports(path):
    """``(line, module, name)`` per ``repro`` import; ``name`` is None for
    a plain ``import repro.x``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend(
                (node.lineno, alias.name, None)
                for alias in node.names
                if _is_repro(alias.name)
            )
        elif (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and _is_repro(node.module or "")
        ):
            found.extend(
                (node.lineno, node.module, alias.name) for alias in node.names
            )
    return found


def test_files_found():
    assert any(path.parent.name == "benchmarks" for path in FILES)
    assert any(path.parent.name == "examples" for path in FILES)


def test_function_local_imports_are_seen():
    # benchmarks/test_extensions.py imports its figure modules inside
    # the benchmark functions
    local = repro_imports(ROOT / "benchmarks" / "test_extensions.py")
    assert ("repro.figures.incast", "run_incast_sweep") in {
        (module, name) for _line, module, name in local
    }


@pytest.mark.parametrize(
    "path", FILES, ids=lambda path: str(path.relative_to(ROOT))
)
def test_repro_imports_resolve(path):
    unresolved = []
    for line, module_name, name in repro_imports(path):
        try:
            module = import_module(module_name)
        except ImportError as exc:
            unresolved.append(f"{path.name}:{line}: {module_name} ({exc})")
            continue
        if name is None or name == "*" or hasattr(module, name):
            continue
        try:  # ``from pkg import submodule``
            import_module(f"{module_name}.{name}")
        except ImportError:
            unresolved.append(f"{path.name}:{line}: {module_name}.{name}")
    assert not unresolved, "\n".join(unresolved)
