"""No module of the package holds an ``assert`` statement.

``python -O`` strips every ``assert``, so a check written as one vanishes
from optimised runs: a condition the code relies on must raise a typed
error instead. This walks each module's syntax tree with ``ast``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wattcast"


def asserts(source: str) -> list:
    """The line of each ``assert`` statement in ``source``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda path: str(path.relative_to(PACKAGE)))
def test_no_assert(path):
    assert asserts(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_assert():
    source = ("def f(x):\n"
              "    assert x, 'message'\n"
              "    if x:\n"
              "        assert (x,)\n"
              "    return 'assert x'\n")
    assert asserts(source) == [2, 4]
