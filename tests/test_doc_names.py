"""Every private name that the documentation names must exist.

A docstring in ``src/balg`` that names ``_name`` in double backticks, and
``README.md`` naming `_name` in single backticks, must name an attribute of
a ``balg`` module or of a class defined in one; dunders are left out.  A
name may be dotted, as in ``algebra._meets``: its last part is checked.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import balg

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "balg").glob("*.py"))

DOCSTRING_NAME = re.compile(r"``([A-Za-z_][\w.]*)``")
README_NAME = re.compile(r"(?<!`)`([A-Za-z_][\w.]*)`(?!`)")


def known_names() -> set[str]:
    """The attributes of every ``balg`` module and of the classes they define."""
    names = set()
    for path in SOURCES:
        name = "balg" if path.stem == "__init__" else f"balg.{path.stem}"
        module = importlib.import_module(name)
        names.update(vars(module))
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__.startswith("balg"):
                for klass in value.__mro__:
                    names.update(vars(klass))
    return names


def docstrings(source: str):
    """The docstrings of a module, its classes and its functions."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc


def private_names(text: str, pattern: re.Pattern) -> set[str]:
    """The last parts of the backticked names in ``text`` that start with an
    underscore and are not dunders."""
    out = set()
    for name in pattern.findall(text):
        last = name.rsplit(".", 1)[-1]
        if last.startswith("_") and not (last.startswith("__") and last.endswith("__")):
            out.add(last)
    return out


def unresolved_in_source(source: str, known: set[str]) -> set[str]:
    return {n for doc in docstrings(source) for n in private_names(doc, DOCSTRING_NAME)} - known


KNOWN = known_names()


def test_docstring_names_resolve():
    missing = {path.name: unresolved_in_source(path.read_text(encoding="utf-8"), KNOWN)
               for path in SOURCES}
    assert {name: names for name, names in missing.items() if names} == {}


def test_readme_names_resolve():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert private_names(text, README_NAME) - KNOWN == set()


def test_the_check_reads_names_at_all():
    """The sources name private helpers, so a scan that finds none is broken."""
    named = set().union(*(private_names(doc, DOCSTRING_NAME)
                          for path in SOURCES
                          for doc in docstrings(path.read_text(encoding="utf-8"))))
    assert {"_joint_cells", "_join_cells", "_meets"} <= named
    assert "_joint_cells" in private_names((ROOT / "README.md").read_text(encoding="utf-8"),
                                           README_NAME)


def test_catches_a_removed_helper():
    """Planted: a docstring that still names a helper the module no longer
    has is reported, wherever the docstring sits; dunders and names that
    exist are not."""
    planted = '''
"""Rows are spread by ``free_product._overlay``."""

class Grid:
    def spread(self):
        """Calls ``_overlay``, then ``_joint_cells``, never ``__init__``."""
'''
    assert not hasattr(balg.free_product, "_overlay")
    assert unresolved_in_source(planted, KNOWN) == {"_overlay"}
    assert private_names("see `_overlay` and `_runs`", README_NAME) - KNOWN == {"_overlay"}
