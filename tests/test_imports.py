"""Every module-level import in ``src/balg`` is used by its module.

A name counts as used when the module reads it anywhere, a quoted
annotation included.  An import on a line marked ``# noqa: F401`` is bound
on purpose and exempt.  The package's ``__init__.py`` only re-exports, so it
is not checked.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "balg"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names read inside string annotations such as ``"places.PlaceFunction"``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    names = set()
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    inner = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    """The names that module-level imports in ``source`` bind and the module
    never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                bound.append(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree)
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_are_used(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_a_planted_unused_import_is_caught():
    source = ("from __future__ import annotations\n"
              "import random\n"
              "from .algebra import Elem, powerset\n"
              "from .algebra import refine_partition  # noqa: F401\n"
              "from . import places\n"
              "def f(x: \"places.PlaceFunction\") -> int:\n"
              "    return powerset(2)\n")
    assert unused_imports(source) == ["random", "Elem"]
