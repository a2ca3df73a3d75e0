"""Package namespaces that import a submodule when one of its names is used.

``repro.harness`` and ``repro.obs`` re-export the names ``bench/``,
``examples/`` and the docs import through them, and neither package is
on the data path: a run that needs ``repro.harness.runner`` should not
import the process-pool stack and the trace readers to get it. Their
``__init__`` therefore holds a ``name -> submodule`` table and no import;
:func:`lazy_exports` turns the table into the PEP 562 module hooks.
``from pkg import name``, ``from pkg import *``, ``pkg.name`` and
``from pkg import submodule`` all behave as they did with eager imports.
A row needs an importer outside the tests
(``tests/test_experiment_options.py``); every other name is imported
from the submodule that defines it.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``; ``exports`` maps each public name to the submodule
    that defines it.

    A resolved object is stored in ``namespace``, so only the first
    access of a name reaches ``__getattr__``.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        submodule = exports.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{submodule}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace).union(exports))

    return __getattr__, __dir__
