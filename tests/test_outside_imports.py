"""Every ``repro`` import under ``examples/`` resolves.

Tier-1 does not collect that directory (``tests/test_examples.py`` runs
each script, which reaches only the imports its run executes). This
walks each file's syntax tree, function-local imports included, imports
every ``repro`` module named and looks up every imported name through
the package's lazy exports, so a deleted module or export shows here
rather than when someone runs the example.
"""

import ast
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "examples").rglob("*.py"))


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
