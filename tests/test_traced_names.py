"""Every name that the span tracer in ``perfbench/tracing.py`` patches
resolves in ``balg``.

The tracer's ``FUNCTIONS`` and ``METHODS`` tables are read with
``ast.literal_eval``, without importing the harness, so that a change to
``src/balg`` which deletes or renames a traced name fails here as well as in
the harness's own tests.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_tables() -> dict:
    """The literal ``FUNCTIONS`` and ``METHODS`` tables of the tracer."""
    tables = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("FUNCTIONS", "METHODS")):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


TABLES = traced_tables()


def test_both_tables_are_read():
    assert set(TABLES) == {"FUNCTIONS", "METHODS"}
    assert all(TABLES.values())


@pytest.mark.parametrize("module, attribute",
                         sorted({(m, a) for m, a, _ in TABLES.get("FUNCTIONS", ())}))
def test_traced_function_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(f"balg.{module}"), attribute))


@pytest.mark.parametrize("module, cls, method",
                         sorted({(m, c, name) for m, c, names, _ in TABLES.get("METHODS", ())
                                 for name in names}))
def test_traced_method_resolves(module, cls, method):
    owner = getattr(importlib.import_module(f"balg.{module}"), cls)
    assert callable(getattr(owner, method))
