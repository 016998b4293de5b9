"""Every name a module of the package imports is used in that module.

No linter ships with the project, so this walks each module's syntax tree
with ``ast``. A name counts as used when the module reads it anywhere, or
lists it in ``__all__``. ``__future__`` imports are exempt, and so is an
import on a line marked ``# noqa: F401`` when the benchmark's tracer
(``perfbench/tracing.py``, read by path) wraps that name in that module:
the tracer looks such names up by attribute, so they stay bound unused.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wattcast"


@pytest.fixture(scope="module")
def traced():
    """(module, name) of each function ``perfbench/tracing.py`` wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(module_name, attr) for module_name, attr, _ in module.FUNCTION_SPANS}


def unused_imports(source: str, kept=frozenset()) -> list:
    """(line, name) of each imported name ``source`` never uses, bar the
    names in ``kept`` imported under their own name on a ``# noqa: F401``
    line."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if (name not in kept or alias.name != name
                    or "# noqa: F401" not in lines[alias.lineno - 1]):
                imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda path: str(path.relative_to(PACKAGE)))
def test_no_unused_import(path, traced):
    module = ".".join(("wattcast",) + path.relative_to(PACKAGE).with_suffix("").parts)
    kept = {name for owner, name in traced if owner == module}
    assert unused_imports(path.read_text(encoding="utf-8"), kept) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json as js\n"
              "from math import (\n"
              "    inf,\n"
              "    nan,\n"
              ")\n"
              "from re import compile, escape  # noqa: F401\n"
              "from re import purge\n"
              "from .series import MultiSeries as var_fit  # noqa: F401\n"
              "from .var import var_fit as var_fit, var_forecast  # noqa: F401\n"
              "__all__ = ['nan']\n"
              "print(os.sep)\n")
    # a ``noqa`` line exempts only the kept names, only a ``noqa`` line does,
    # and only an import that binds a kept name to the object of that name
    assert unused_imports(source, {"compile", "purge", "var_fit", "var_forecast"}) == [
        (3, "js"), (5, "inf"), (8, "escape"), (9, "purge"), (10, "var_fit")]

