"""The free product's table ``_forms`` is read in two functions alone.

Every attribute read of ``_forms`` in ``src/balg`` must sit inside
``free_product._joint_cells``, which reads each part's atom mask on the
atom pairs, or ``free_product._join_cells``, the one exit from a grid and a
flat mask to a canonical form.  A write, such as the one in
``FreeProduct.__post_init__`` that sets the table, is no read.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "balg"

READERS = {("free_product", "_joint_cells"), ("free_product", "_join_cells")}


def table_reads(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    """Each read of an attribute ``_forms`` in ``sources`` (module name to
    source text) as (module, enclosing module-level definition, line); a
    read at module level has the definition ``<module>``."""
    reads = []
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            where = getattr(stmt, "name", "<module>")
            reads += [(module, where, node.lineno) for node in ast.walk(stmt)
                      if isinstance(node, ast.Attribute) and node.attr == "_forms"
                      and isinstance(node.ctx, ast.Load)]
    return reads


def stray_reads(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    return [r for r in table_reads(sources) if r[:2] not in READERS]


def balg_sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def test_only_the_cell_route_reads_the_table():
    assert stray_reads(balg_sources()) == []


def test_both_readers_read_it():
    """A scan that finds no read at all is broken."""
    assert {r[:2] for r in table_reads(balg_sources())} == READERS


def test_a_planted_read_is_caught():
    sources = balg_sources()
    sources["free_product"] += ("\n\ndef _planted_form(fp, mask):\n"
                                "    return fp._forms.get(mask)\n")
    reads = stray_reads(sources)
    assert [(m, name) for m, name, _ in reads] == [("free_product", "_planted_form")]


def test_each_kind_of_read_counts():
    """Reads in a method, a nested function and at module level count, in
    any module; writes and the readers' own reads do not."""
    sources = {
        "free_product": "def _join_cells(fp):\n    return fp._forms\n\n\n"
                        "class P:\n    def __post_init__(self):\n        self._forms = {}\n\n"
                        "    def table(self):\n        return self._forms\n",
        "places": "def f(fp):\n    def g():\n        return fp._forms[0]\n    return g\n\n\n"
                  "TABLE = P()._forms\n",
    }
    assert [(m, name) for m, name, _ in stray_reads(sources)] == [
        ("free_product", "P"), ("places", "f"), ("places", "<module>")]
