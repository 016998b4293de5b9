"""Every name a module of the package imports is used in that module.

No linter ships with the project, so this walks each module's syntax tree
with ``ast``. A name counts as used when the module reads it anywhere, or
lists it in ``__all__``. An import on a line marked ``# noqa: F401`` is a
deliberate re-export and is exempt, as are ``__future__`` imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wattcast"


def unused_imports(source: str) -> list:
    """(line, name) of each imported name ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda path: str(path.relative_to(PACKAGE)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json as js\n"
              "from math import (\n"
              "    inf,\n"
              "    nan,\n"
              ")\n"
              "from re import compile  # noqa: F401\n"
              "__all__ = ['nan']\n"
              "print(os.sep)\n")
    assert unused_imports(source) == [(3, "js"), (5, "inf")]
