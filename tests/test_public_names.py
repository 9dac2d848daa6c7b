"""Every public module-level function and class in ``src/balg`` is read
somewhere other than its own definition.

A read counts when a module of ``src/balg`` loads the name, through its own
binding or a ``from .module import`` of it, or reads it as an attribute of
the module that defines it (``places.leq``, ``band_model.principal_band``);
a name inside a quoted annotation counts too.  So do a re-export in
``__init__.py`` and an entry of the perfbench tracer's ``FUNCTIONS`` or
``METHODS`` table, parsed as in ``test_traced_names``.  A read inside the
name's own definition does not count.  A name read by none of these is a
deliberate reference route and is listed in ``REFERENCE_ROUTES`` with the
reason it is kept.
"""

import ast
from pathlib import Path

from test_traced_names import traced_tables

SRC = Path(__file__).resolve().parents[1] / "src" / "balg"

REFERENCE_ROUTES = {
    ("tensor", "psi_terms_by_rectangles"):
        "the rectangle-by-rectangle route to psi, the oracle that the tests "
        "set against the refined psi_terms",
}


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    return {stmt.name: stmt for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")}


def _bindings(module: str, tree: ast.Module) -> tuple[dict, dict]:
    """The names a module binds to (module, name) pairs, and the names it
    binds to sibling modules."""
    names = {name: (module, name) for name in _definitions(tree)}
    modules = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
            for alias in stmt.names:
                bound = alias.asname or alias.name
                if stmt.module is None:
                    modules[bound] = alias.name
                else:
                    names[bound] = (stmt.module, alias.name)
    return names, modules


def _loaded_names(node: ast.AST) -> list[ast.AST]:
    """The nodes under ``node``, with the names of quoted annotations parsed
    in as nodes of their own."""
    out = []
    for sub in ast.walk(node):
        out.append(sub)
        annotation = None
        if isinstance(sub, (ast.arg, ast.AnnAssign)):
            annotation = sub.annotation
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = sub.returns
        if annotation is not None:
            for c in ast.walk(annotation):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    try:
                        out.extend(ast.walk(ast.parse(c.value, mode="eval")))
                    except SyntaxError:
                        pass
    return out


def unread_names(sources: dict[str, str], external: set[tuple[str, str]]) -> list[tuple[str, str]]:
    """The (module, name) pairs of public module-level definitions in
    ``sources`` (module name to source text; ``__init__`` re-exports) that
    nothing reads, ``external`` reads included."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    bindings = {module: _bindings(module, tree) for module, tree in trees.items()}

    def resolve(module: str, name: str) -> tuple[str, str]:
        seen = set()
        while (module, name) not in seen and name in bindings.get(module, ({}, {}))[0]:
            seen.add((module, name))
            module, name = bindings[module][0][name]
        return module, name

    read = {resolve(m, n) for m, n in external}
    for module, tree in trees.items():
        names, modules = bindings[module]
        for stmt in tree.body:
            if module == "__init__" and isinstance(stmt, ast.ImportFrom):
                read |= {resolve(stmt.module, a.name) for a in stmt.names if stmt.module}
                continue
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = (module, stmt.name)
            for node in _loaded_names(stmt):
                if isinstance(node, ast.Name) and node.id in names:
                    target = resolve(module, node.id)
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in modules):
                    target = resolve(modules[node.value.id], node.attr)
                else:
                    continue
                if target != own:
                    read.add(target)
    defined = {(module, name) for module, tree in trees.items() if module != "__init__"
               for name in _definitions(tree)}
    return sorted(defined - read)


def balg_sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def tracer_reads() -> set[tuple[str, str]]:
    tables = traced_tables()
    return ({(m, a) for m, a, _ in tables["FUNCTIONS"]}
            | {(m, c) for m, c, _, _ in tables["METHODS"]})


def test_every_public_definition_is_read():
    unread = unread_names(balg_sources(), tracer_reads())
    assert [n for n in unread if n not in REFERENCE_ROUTES] == []


def test_every_reference_route_is_still_unread():
    """An allowlisted route that something reads again leaves the list."""
    unread = unread_names(balg_sources(), tracer_reads())
    assert sorted(REFERENCE_ROUTES) == [n for n in unread if n in REFERENCE_ROUTES]


def test_a_planted_unused_function_is_caught():
    sources = balg_sources()
    sources["bands"] += ("\n\ndef planted_unused(n):\n"
                         "    return planted_unused(n - 1) if n else band_algebra(1)\n")
    unread = unread_names(sources, tracer_reads())
    assert [n for n in unread if n not in REFERENCE_ROUTES] == [("bands", "planted_unused")]


def test_each_kind_of_read_counts():
    sources = {
        "a": "def f():\n    return 1\n\n\ndef g():\n    return 2\n\n\n"
             "class C:\n    pass\n\n\ndef h():\n    return 3\n\n\ndef unused():\n    return f()\n",
        "b": "from . import a as m\nfrom .a import C\n\n\n"
             "def k(x: \"C\"):\n    return m.g()\n",
        "__init__": "from .b import k\n",
    }
    assert unread_names(sources, set()) == [("a", "h"), ("a", "unused")]
    assert unread_names(sources, {("a", "h")}) == [("a", "unused")]
