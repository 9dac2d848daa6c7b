"""The Stone-space point reader ``balg.points``.

``decisive`` lists the points that decide a family and ``holds`` reads
membership at them.  On finite_cofinite every natural reads as the point
that stands for it: itself where the family names it, else the tail point
TAIL.  On P(n) (x) P(m) a grid reads as its ``atom_mask``, which goes
through ``point_index`` instead.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balg.algebra import AlgebraError, finite_cofinite, powerset, trivial_algebra
from balg.free_product import FreeProduct
from balg.points import TAIL, decisive, holds
from conftest import FC, P3, fincof_elems, grid_elems, naturals

FCxFC = FreeProduct(FC, FC)


def stand_in(named, n):
    """The decisive point that decides the natural n."""
    return n if n in named else TAIL


class TestDecisive:
    def test_atoms_of_a_powerset(self):
        assert decisive(P3, [P3.subset([2])]) == [1, 2, 3]
        assert decisive(trivial_algebra(), []) == []

    def test_named_naturals_then_the_tail(self):
        family = [FC.cof([7, 2]), FC.fin([10**6, 2]), FC.zero]
        assert decisive(FC, family) == [2, 7, 10**6, TAIL]
        assert decisive(FC, family[:1]) == [2, 7, TAIL]
        assert decisive(FC, []) == [TAIL]

    def test_one_tail_for_every_family(self):
        assert decisive(FC, [FC.one])[-1] is decisive(finite_cofinite("N"), [FC.fin([3])])[-1]
        assert repr(TAIL) == "TAIL"

    @settings(max_examples=200, deadline=None)
    @given(family=st.lists(fincof_elems(), max_size=4), ns=st.lists(naturals(), max_size=6))
    def test_every_natural_reads_as_its_decisive_point(self, family, ns):
        pts = decisive(FC, family)
        named = set(pts[:-1])
        assert pts[:-1] == sorted(named) and pts[-1] is TAIL
        for x in family:
            assert holds(x, ns) == holds(x, [stand_in(named, n) for n in ns])
            assert holds(x, ns) == [x.contains(n) for n in ns]
            assert holds(x, [TAIL]) == [x.data[0] == "cof"]

    @settings(max_examples=100, deadline=None)
    @given(x=grid_elems(FCxFC, fincof_elems(), fincof_elems()),
           pairs=st.lists(st.tuples(naturals(), naturals()), max_size=6))
    def test_every_grid_point_reads_as_its_decisive_point(self, x, pairs):
        left = set(decisive(FC, x.left_cells)[:-1])
        right = set(decisive(FC, x.right_cells)[:-1])
        assert holds(x, pairs) == holds(
            x, [(stand_in(left, p), stand_in(right, q)) for p, q in pairs])


FINITE_PRODUCTS = [FreeProduct(powerset(n), powerset(m))
                   for n in range(1, 7) for m in range(1, 7) if n * m <= 6]


@pytest.mark.parametrize("fp", FINITE_PRODUCTS, ids=[fp.name for fp in FINITE_PRODUCTS])
def test_grids_read_as_their_atom_masks(fp):
    n, m = fp.left.atom_count, fp.right.atom_count
    pairs = [(p, q) for p in range(1, n + 1) for q in range(1, m + 1)]
    for x in fp.elements():
        mask = fp.atom_mask(x)
        assert holds(x, pairs) == [bool(mask >> k & 1) for k in range(n * m)]


def test_fincof_grids_read_at_the_tail():
    x = FCxFC.rect(FC.cof([1]), FC.fin([2]))
    assert holds(x, [(TAIL, 2), (0, 2), (1, 2), (TAIL, TAIL), (TAIL, 3)]) == [
        True, True, False, False, False]


NON_POINTS = {"P3": (P3, [0, 4, -1, TAIL, True, False, 1.0, "1"]),
              "FC": (FC, [-1, -(10**6), True, False, 1.0, "1", None])}


@pytest.mark.parametrize("name", sorted(NON_POINTS))
def test_non_points_raise(name):
    alg, bad = NON_POINTS[name]
    fp = FreeProduct(alg, alg)
    good = decisive(alg, [])[0]
    for p in bad:
        for x in (alg.zero, alg.one):
            with pytest.raises(AlgebraError, match="not a point"):
                holds(x, [p])
        for pair in ((p, good), (good, p)):
            with pytest.raises(AlgebraError, match="not a point"):
                holds(fp.one, [pair])


def test_nothing_holds_in_a_trivial_product():
    for fp in (FreeProduct(trivial_algebra(), P3), FreeProduct(FC, trivial_algebra())):
        assert holds(fp.one, [(1, 1), (TAIL, 0)]) == [False, False]
        assert holds(fp.zero, []) == []
