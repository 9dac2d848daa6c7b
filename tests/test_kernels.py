"""Conformance of the backend kernels.

Every kind's kernel defines the same operations, and each operation, reached
through ``Elem`` and ``Algebra``, agrees with membership at the points that
decide its operands, ``points.decisive``, read off the data format by
``points.holds``.  A new kind joins ``ALGEBRAS`` with a strategy for its
elements and teaches ``balg.points`` its format.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balg import algebra
from balg.algebra import POWERSET, AlgebraError, _meets, point_index, powerset, trivial_algebra
from balg.points import TAIL, decisive, holds
from conftest import FC, fincof_elems, partitions, powerset_elems, split_refine

OPERATIONS = {"zero", "one", "join", "meet", "complement", "leq", "contains",
              "sort_key", "random_elem", "point_index", "point_cells", "meets"}

P0, P1, P16 = trivial_algebra(), powerset(1), powerset(16)
ALGEBRAS = {
    "P0": (P0, powerset_elems(P0)),
    "P1": (P1, powerset_elems(P1)),
    "P16": (P16, powerset_elems(P16)),
    "FC": (FC, fincof_elems()),
}


def test_kernels_define_the_same_operations():
    for kind, kernel in algebra._KERNELS.items():
        names = {n for n in dir(kernel(0)) if not n.startswith("_")}
        assert names == OPERATIONS, kind


def non_points(alg):
    """Integers that are no point of the algebra."""
    return (0, alg.atom_count + 1, -1) if alg.kind == POWERSET else (-1, -(10**6))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_operations_match_point_sets(name, data):
    alg, elems = ALGEBRAS[name]
    x, y = data.draw(elems), data.draw(elems)
    xs = data.draw(st.lists(elems, max_size=4))
    where = decisive(alg, [x, y, *xs])
    px, py = holds(x, where), holds(y, where)
    assert holds(x & y, where) == [a and b for a, b in zip(px, py)]
    assert holds(x | y, where) == [a or b for a, b in zip(px, py)]
    assert holds(~x, where) == [not a for a in px]
    assert holds(alg.join(xs), where) == [any(holds(v, [p])[0] for v in xs) for p in where]
    assert not any(holds(alg.zero, where)) and all(holds(alg.one, where))
    assert x.leq(y) == all(b or not a for a, b in zip(px, py))
    assert x.is_zero() == (not any(px))
    assert (x == y) == (px == py)
    assert all(x.contains(n) == a for n, a in zip(where, px) if n is not TAIL)
    assert not any(x.contains(n) for n in non_points(alg))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sort_key_is_a_total_order(name, data):
    """Keys of distinct elements differ, and any two keys compare."""
    alg, elems = ALGEBRAS[name]
    pool = data.draw(st.lists(elems, min_size=1, max_size=6))
    ranked = sorted(pool, key=alg.sort_key)
    for a, b in zip(ranked, ranked[1:]):
        assert alg.sort_key(a) < alg.sort_key(b) or a == b
        assert (alg.sort_key(a) == alg.sort_key(b)) == (a == b)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_meets_match_split_refine(name, data):
    """The common refinement of up to three partitions is the split of the
    unit by all their cells, and each cell's signature names the cell of
    every partition above it."""
    alg, elems = ALGEBRAS[name]
    parts = data.draw(st.lists(partitions(alg, elems), max_size=3))
    cells, signatures = _meets(alg, parts)
    assert cells == split_refine(alg.one, [c for part in parts for c in part])
    assert len(signatures) == len(cells)
    for cell, signature in zip(cells, signatures):
        assert all(cell.leq(part[k]) for part, k in zip(parts, signature))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_point_index_finds_each_point(name, data):
    """Each point lies in the one cell its index names, and a cell listed
    twice is refused."""
    alg, elems = ALGEBRAS[name]
    cells = data.draw(partitions(alg, elems))
    index, tail = point_index(alg, cells)
    for n in decisive(alg, cells):
        want = tail if n is TAIL else index.get(n, tail)
        assert [k for k, c in enumerate(cells) if holds(c, [n])[0]] == [want]
    assert (tail is None) == (alg.kind == POWERSET)
    if cells:
        with pytest.raises(AlgebraError):
            point_index(alg, [*cells, cells[0]])


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_random_elements_are_canonical(name):
    alg, _ = ALGEBRAS[name]
    rng = random.Random(0)
    for _ in range(200):
        x = alg.random_elem(rng)
        if alg.kind == POWERSET:
            assert 0 <= x.data <= alg.kernel.one
        else:
            mode, support = x.data
            assert x == (FC.fin if mode == "fin" else FC.cof)(support)
