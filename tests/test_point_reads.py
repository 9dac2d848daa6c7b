"""Every membership verdict of the validator is read through ``balg.points``.

``points.py`` takes from the rest of ``balg`` only ``.algebra``, so it
shares no cell logic with the free product or the certificate builders it
checks.  No function in ``validation`` calls ``.contains(`` or
``point_index``, or reads ``.data``, the element format that only
``points`` reads there.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "balg"


def source(module: str) -> str:
    return (SRC / f"{module}.py").read_text(encoding="utf-8")


def package_imports(text: str) -> list[str]:
    """The ``balg`` modules a source imports from, as ``.name`` for a
    relative import and the dotted name for an absolute one."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found.append("." * node.level + (node.module or ""))
            elif (node.module or "").split(".")[0] == "balg":
                found.append(node.module)
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "balg"]
    return found


def stray_reads(text: str) -> list[tuple[str, str, int]]:
    """Each call of ``contains`` or ``point_index``, and each load of an
    attribute ``data``, as (enclosing module-level definition, what, line)."""
    found = []
    for stmt in ast.parse(text).body:
        where = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in ("contains", "point_index"):
                    found.append((where, name, node.lineno))
            elif (isinstance(node, ast.Attribute) and node.attr == "data"
                  and isinstance(node.ctx, ast.Load)):
                found.append((where, "data", node.lineno))
    return found


def test_points_imports_from_algebra_only():
    assert set(package_imports(source("points"))) == {".algebra"}


def test_validation_reads_no_membership_itself():
    assert stray_reads(source("validation")) == []


def test_validation_reads_through_points():
    """A validator that no longer calls the reader would pass the scan."""
    calls = {node.attr for node in ast.walk(ast.parse(source("validation")))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "points"}
    assert {"decisive", "holds"} <= calls


def test_planted_violations_are_caught():
    planted = source("points") + "\nfrom .free_product import RectForm\nimport balg.places\n"
    assert sorted(package_imports(planted)) == [".algebra", ".free_product", "balg.places"]
    planted = source("validation") + (
        "\n\ndef _planted(u, cells, fp):\n"
        "    return u.contains(0) and point_index(fp.left, cells) and cells[0].data\n")
    assert [(where, what) for where, what, _ in stray_reads(planted)] == [
        ("_planted", "contains"), ("_planted", "point_index"), ("_planted", "data")]
