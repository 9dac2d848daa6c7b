import dataclasses
import random
from functools import reduce
from operator import and_, or_, xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balg import algebra, free_product, places, tensor
from balg import certificates as certs
from balg.algebra import POWERSET, AlgebraError, Elem, Hom, _meets, powerset, trivial_algebra
from balg.expr import grid_dict, rectform_from_grid
from balg.free_product import FreeProduct, InducedHom, Rectangle, RectForm, _joint_cells
from balg.points import TAIL, holds
from conftest import (FC, P3, P4, fincof_elems, flat, grid_elems, partitions,
                      powerset_elems, rationals, split_refine)

P2 = powerset(2)
P5 = powerset(5)
A = powerset(2, "A")
B = powerset(2, "B")


def covered_pairs(rects, n, m):
    """Oracle: atom pairs lying under a union of rectangles, read off the
    rectangle sides directly."""
    return {(p, q) for p in range(1, n + 1) for q in range(1, m + 1)
            if any(r.left.contains(p) and r.right.contains(q) for r in rects)}


def grid_pairs(x, n, m):
    """Atom pairs of a grid form, read cell by cell in the test's own way."""
    out = set()
    for i, lc in enumerate(x.left_cells):
        for j, rc in enumerate(x.right_cells):
            if x.rows[i] >> j & 1:
                out.update((p, q) for p in range(1, n + 1) if lc.contains(p)
                           for q in range(1, m + 1) if rc.contains(q))
    return out


def random_rects(fp, rng, most=3):
    return [Rectangle(fp.left.random_elem(rng), fp.right.random_elem(rng))
            for _ in range(rng.randint(0, most))]


class TestNormalize:
    def test_grid_example(self):
        # two overlapping rectangles refine to the atom grid with three
        # active cells (expected values enumerated by hand from membership)
        fp = FreeProduct(A, B)
        x = fp.normalize([Rectangle(A.subset([1, 2]), B.subset([1])),
                          Rectangle(A.subset([2]), B.subset([1, 2]))])
        assert grid_dict(x) == {
            "left_cells": ["{1}", "{2}"],
            "right_cells": ["{1}", "{2}"],
            "matrix": [[True, False], [True, True]],
        }
        assert grid_pairs(x, 2, 2) == {(1, 1), (2, 1), (2, 2)}

    def test_empty_is_zero(self):
        fp = FreeProduct(A, B)
        assert fp.normalize([]) == fp.zero
        assert fp.zero.is_zero()

    def test_full_rectangle_is_unit(self):
        fp = FreeProduct(A, B)
        assert fp.normalize([Rectangle(A.one, B.one)]) == fp.one

    def test_foreign_zero_sides_rejected(self):
        """A side from another backend raises even when its rectangle is
        zero, beside a nonzero rectangle or alone."""
        fp = FreeProduct(P2, P3)
        with pytest.raises(AlgebraError):
            fp.rect(P5.zero, P3.one)
        with pytest.raises(AlgebraError):
            fp.rect(P2.zero, FC.one)
        with pytest.raises(AlgebraError):
            fp.normalize([Rectangle(P2.one, P3.one), Rectangle(P2.one, FC.zero)])

    def test_matches_membership_oracle(self):
        rng = random.Random(0)
        fp = FreeProduct(powerset(3), powerset(4))
        for _ in range(300):
            rects = random_rects(fp, rng)
            x = fp.normalize(rects)
            assert grid_pairs(x, 3, 4) == covered_pairs(rects, 3, 4)

    def test_order_and_split_invariance(self):
        rng = random.Random(1)
        for fp in (FreeProduct(powerset(3), powerset(2)), FreeProduct(FC, FC)):
            for _ in range(150):
                rects = random_rects(fp, rng)
                base = fp.normalize(rects)
                shuffled = rects[:]
                rng.shuffle(shuffled)
                assert fp.normalize(shuffled) == base
                if rects:
                    k = rng.randrange(len(rects))
                    cut = fp.left.random_elem(rng)
                    r = rects[k]
                    split = (rects[:k]
                             + [Rectangle(r.left & cut, r.right),
                                Rectangle(r.left & ~cut, r.right)]
                             + rects[k + 1:])
                    assert fp.normalize(split) == base

    def test_canonical_grid_invariants(self):
        rng = random.Random(2)
        for fp in (FreeProduct(powerset(3), powerset(3)), FreeProduct(FC, FC)):
            for _ in range(150):
                x = fp.random_elem(rng)
                assert len(set(x.rows)) == len(x.rows)
                cols = [tuple(r >> j & 1 for r in x.rows)
                        for j in range(len(x.right_cells))]
                assert len(set(cols)) == len(cols)
                for cells, alg in ((x.left_cells, fp.left), (x.right_cells, fp.right)):
                    assert alg.sup(cells) == alg.one
                    keys = [alg.sort_key(c) for c in cells]
                    assert keys == sorted(keys)
                    for i in range(len(cells)):
                        assert not cells[i].is_zero()
                        for j in range(i + 1, len(cells)):
                            assert (cells[i] & cells[j]).is_zero()

    def test_rows_come_from_cell_masks(self, monkeypatch):
        """Work guard: the diagonal of 40 points makes 41 cells per axis,
        and normalize compares each cell with each rectangle side once,
        where testing every cell pair against every rectangle makes about
        41 * 41 * 40 comparisons."""
        fp = FreeProduct(FC, FC)
        rects = [Rectangle(FC.fin([n]), FC.fin([n])) for n in range(40)]
        calls = [0]
        elem_leq = Elem.leq

        def counting_leq(a, b):
            calls[0] += 1
            return elem_leq(a, b)

        monkeypatch.setattr(Elem, "leq", counting_leq)
        x = fp.normalize(rects)
        monkeypatch.undo()
        assert len(x.left_cells) == len(x.right_cells) == 41
        assert calls[0] <= (41 + 41) * len(rects)
        for n in (0, 39, 40):
            assert holds(x, [(n, n), (n, n + 1)]) == [n < 40, False]


class TestEmbeddings:
    def test_embed_left_examples(self):
        fp = FreeProduct(A, B)
        assert fp.embed_left(A.subset([1])) == fp.normalize(
            [Rectangle(A.subset([1]), B.subset([1])),
             Rectangle(A.subset([1]), B.subset([2]))])
        assert fp.embed_left(A.zero) == fp.zero
        assert fp.embed_left(A.one) == fp.one

    def test_embeds_are_homomorphisms(self):
        rng = random.Random(3)
        for fp in (FreeProduct(powerset(3), powerset(2)), FreeProduct(FC, FC)):
            for _ in range(500):
                x, y = fp.left.random_elem(rng), fp.left.random_elem(rng)
                assert fp.embed_left(x & y) == (fp.embed_left(x) & fp.embed_left(y))
                assert fp.embed_left(x ^ y) == (fp.embed_left(x) ^ fp.embed_left(y))
                assert fp.embed_left(x | y) == (fp.embed_left(x) | fp.embed_left(y))
                if x != y:
                    assert fp.embed_left(x) != fp.embed_left(y)

    def test_nonzero_rectangles(self):
        rng = random.Random(4)
        for fp in (FreeProduct(powerset(3), powerset(2)), FreeProduct(FC, FC),
                   FreeProduct(powerset(2), FC)):
            for _ in range(350):
                a, b = fp.left.random_elem(rng), fp.right.random_elem(rng)
                if not a.is_zero() and not b.is_zero():
                    assert not fp.rect(a, b).is_zero()

    def test_infinite_backends_meet_nonzero(self):
        fp = FreeProduct(FC, FC)
        meet = fp.embed_left(FC.fin([0])) & fp.embed_right(FC.fin([0]))
        assert not meet.is_zero()


class TestStructure:
    def test_atom_and_element_counts(self):
        for n, m in ((1, 1), (2, 2), (2, 3), (3, 3)):
            fp = FreeProduct(powerset(n), powerset(m))
            assert fp.atom_count == n * m
            atoms = fp.atoms()
            assert len(atoms) == n * m
            seen = {fp.from_atom_mask(mask) for mask in range(1 << (n * m))}
            assert len(seen) == 1 << (n * m)

    def test_from_atom_mask_range(self):
        """A mask outside [0, 2^(n*m)) is refused, with a table or without."""
        for fp in (FreeProduct(P2, powerset(3)), FreeProduct(P5, P4)):
            top = (1 << fp.atom_count) - 1
            assert fp.from_atom_mask(top) == fp.one and fp.from_atom_mask(0) == fp.zero
            for mask in (-1, top + 1, 1 << 40):
                with pytest.raises(AlgebraError, match="outside"):
                    fp.from_atom_mask(mask)

    def test_from_atom_mask_takes_ints_only(self):
        """A float or a bool equal to a mask is refused, with a table or without."""
        for fp in (FreeProduct(P2, P2), FreeProduct(P5, P4)):
            for mask in (1.0, True, False, "1"):
                with pytest.raises(AlgebraError, match="ints"):
                    fp.from_atom_mask(mask)

    def test_atoms_are_minimal(self):
        fp = FreeProduct(P2, P2)
        for x in fp.elements():
            for t in fp.atoms():
                meet = x & t
                assert meet.is_zero() or meet == t

    def test_zero_unit_matrices(self):
        fp = FreeProduct(A, B)
        assert fp.zero.rows == (0,)
        assert fp.one.rows == (1,)


class TestDecompose:
    def test_rectangle_decomposes_to_itself(self):
        fp = FreeProduct(A, B)
        r = Rectangle(A.subset([1]), B.subset([2]))
        assert fp.rect(r.left, r.right).decompose_disjoint() == (r,)

    def test_zero_decomposes_empty(self):
        assert FreeProduct(A, B).zero.decompose_disjoint() == ()

    def test_complement_example(self):
        fp = FreeProduct(A, B)
        got = (~fp.rect(A.subset([1]), B.subset([1]))).decompose_disjoint()
        assert got == (Rectangle(A.subset([1]), B.subset([2])),
                       Rectangle(A.subset([2]), B.one))

    def test_rejoins_disjointly(self):
        rng = random.Random(5)
        for fp in (FreeProduct(powerset(3), powerset(3)), FreeProduct(FC, FC),
                   FreeProduct(FC, powerset(2))):
            for _ in range(200):
                x = fp.random_elem(rng)
                rects = x.decompose_disjoint()
                assert (len(rects) == 0) == x.is_zero()
                for i, r in enumerate(rects):
                    assert not r.is_zero()
                    assert fp.rect(r.left, r.right).leq(x)
                    for rr in rects[i + 1:]:
                        assert (r.left & rr.left).is_zero()
                assert fp.normalize(rects) == x


class TestEvaluation:
    def test_identities_hold_under_rearrangement(self):
        # 500 random identities: re-association, de morgan, double
        # complement, and operand re-splitting leave values fixed
        rng = random.Random(21)
        fps = (FreeProduct(powerset(3), powerset(2)), FreeProduct(FC, FC))
        for k in range(500):
            fp = fps[k % 2]
            x, y, z = (fp.random_elem(rng) for _ in range(3))
            assert (x & y) & z == x & (y & z)
            assert (x | y) | z == x | (y | z)
            assert ~(x & y) == (~x | ~y)
            assert ~~x == x
            assert (x ^ y) == ((x & ~y) | (~x & y))
            s = fp.embed_left(fp.left.random_elem(rng))
            assert ((x & s) | (x & ~s)) == x


class TestInducedHom:
    def test_commutes_with_embeddings(self):
        # identity on the left factor, unit-collapse on the right
        d = powerset(2, "D")
        a = powerset(2, "A2")
        b = powerset(1, "B1")
        fp = FreeProduct(a, b)
        phi_a = Hom.identity(a)
        phi_b = Hom.from_atom_map(b, d, [1, 1])
        ind = InducedHom(phi_a, phi_b, d)
        for x in a.elements():
            assert ind(fp.embed_left(x)) == phi_a(x)
        for y in b.elements():
            assert ind(fp.embed_right(y)) == phi_b(y)
        assert ind(fp.one) == d.one
        assert ind(fp.zero) == d.zero

    def test_two_routes_agree(self):
        rng = random.Random(6)
        a, b, d = powerset(2), powerset(3), powerset(3)
        fp = FreeProduct(a, b)
        phi_a = Hom.from_atom_map(a, d, [1, 2, 1])
        phi_b = Hom.from_atom_map(b, d, [3, 1, 2])
        ind = InducedHom(phi_a, phi_b, d)
        for _ in range(200):
            x = fp.random_elem(rng)
            assert ind(x) == ind.via_rectangles(x)

    def test_non_homomorphic_input_rejected(self):
        a = powerset(2)
        broken = Hom.from_table(a, a, {x: a.one for x in a.elements()})
        with pytest.raises(AlgebraError):
            InducedHom(broken, Hom.identity(a), a)

    def test_corrupted_powerset_table_rejected(self):
        # a table is no atom map, so it is refused whatever its entries;
        # that the exact homomorphism check catches this one wrong entry is
        # pinned in tests/test_algebra.py
        p6 = powerset(6)
        table = {x: x for x in p6.elements()}
        table[p6.subset([1, 2])] = p6.subset([3, 5, 6])
        with pytest.raises(AlgebraError):
            InducedHom(Hom.from_table(p6, p6, table), Hom.identity(p6), p6)

    def test_correct_identity_table_refused(self):
        table = Hom.from_table(P2, P2, {x: x for x in P2.elements()})
        with pytest.raises(AlgebraError, match="out of powerset is no atom map"):
            InducedHom(table, Hom.identity(P2), P2)

    def test_correct_generator_image_map_refused(self):
        # the identity of P(2), given on the generator {1}
        phi = Hom.from_generator_images(P2, P2, [(P2.subset([1]), P2.subset([1]))])
        assert all(phi(x) == x for x in P2.elements())
        with pytest.raises(AlgebraError, match="out of powerset is no atom map"):
            InducedHom(Hom.identity(P2), phi, P2)

    def test_map_out_of_finite_cofinite_refused(self):
        # the map is defined only on the subalgebra that fin{0} generates,
        # and no finite check reaches every element of finite_cofinite
        phi = Hom.from_generator_images(FC, P2, [(FC.fin([0]), P2.subset([1]))])
        with pytest.raises(AlgebraError, match="out of finite_cofinite"):
            InducedHom(phi, Hom.identity(P2), P2)

    def test_factor_map_into_another_algebra_refused(self):
        """Accepted before: the induced map sent the unit into P(3), and a
        two-rectangle element to a bitset outside P(2)."""
        psi = Hom.from_atom_map(P2, powerset(3), [1, 2, 2])
        for left, right in ((psi, psi), (psi, Hom.identity(P2)), (Hom.identity(P2), psi)):
            with pytest.raises(AlgebraError, match="lands in P\\(3\\), not in P\\(2\\)"):
                InducedHom(left, right, P2)


class TestTriviality:
    def test_trivial_factor_collapses(self):
        t = trivial_algebra()
        for fp in (FreeProduct(t, powerset(1)), FreeProduct(FC, t),
                   FreeProduct(t, t)):
            assert fp.is_trivial
            assert fp.zero == fp.one
            assert fp.embed_left(fp.left.one) == fp.zero

    def test_nontrivial_pairs_stay_nontrivial(self):
        for fp in (FreeProduct(powerset(1), powerset(1)), FreeProduct(FC, FC)):
            assert not fp.is_trivial
            assert fp.zero != fp.one

    def test_is_trivial_and_table_are_held(self):
        """Slots set once with the product, outside its equality and repr."""
        assert {"is_trivial", "_forms"} <= set(FreeProduct.__slots__)
        held = {f.name: f for f in dataclasses.fields(FreeProduct)}
        for name in ("is_trivial", "_forms"):
            assert not held[name].compare and not held[name].repr and not held[name].init
        fp = FreeProduct(A, B)
        assert repr(fp) == f"FreeProduct(left={A!r}, right={B!r})"
        assert fp == FreeProduct(A, B) and hash(fp) == hash(FreeProduct(P2, P2))

    def test_zero_and_one_are_held(self):
        """Built once with the product, as ``Algebra`` holds its own, not on
        each read; outside the product's equality and repr."""
        held = {f.name: f for f in dataclasses.fields(FreeProduct)}
        for name in ("zero", "one"):
            assert name in FreeProduct.__slots__
            assert not held[name].compare and not held[name].repr and not held[name].init
        for fp in (FreeProduct(A, B), FreeProduct(FC, FC), FreeProduct(trivial_algebra(), P3)):
            assert fp.zero is fp.zero and fp.one is fp.one
            assert fp.zero.fp is fp and fp.one.fp is fp

    def test_finite_structure_needs_powersets(self):
        with pytest.raises(AlgebraError):
            FreeProduct(FC, FC).atoms()
        with pytest.raises(AlgebraError):
            FreeProduct(trivial_algebra(), powerset(2)).atom_count


T = trivial_algebra()
TRIVIAL_PRODUCTS = {"TxFC": FreeProduct(T, FC), "FCxT": FreeProduct(FC, T),
                    "TxP2": FreeProduct(T, P2), "P3xT": FreeProduct(P3, T),
                    "TxT": FreeProduct(T, T)}


@pytest.mark.parametrize("name", TRIVIAL_PRODUCTS)
class TestTrivialProduct:
    """A product with a trivial factor has one element, the empty grid, and
    every operation lands on it."""

    def operands(self, fp):
        rng = random.Random(3)
        return [fp.zero, fp.one] + [fp.random_elem(rng) for _ in range(3)]

    def test_grid_operations_give_the_empty_grid(self, name):
        fp = TRIVIAL_PRODUCTS[name]
        empty = RectForm(fp, (), (), ())
        assert fp.zero == fp.one == empty
        xs = self.operands(fp)
        for x in xs:
            assert x == empty and ~x == empty
            assert x.leq(fp.zero) and x.decompose_disjoint() == ()
            for y in xs:
                assert x & y == x | y == x ^ y == empty
        assert fp.join(xs) == fp.join([]) == empty
        assert fp.normalize([]) == fp.normalize([Rectangle(fp.left.one, fp.right.one)]) == empty
        payload, masks, ncells = fp.joint_cells(xs)
        assert payload == ((), ()) and masks == [0] * len(xs) and ncells == 0
        assert fp.join_cells(payload, 0) == empty

    def test_random_elem_draws_nothing(self, name):
        fp = TRIVIAL_PRODUCTS[name]
        rng = random.Random(5)
        state = rng.getstate()
        fp.random_elem(rng)
        assert rng.getstate() == state

    def test_place_functions_and_psi_are_zero(self, name):
        fp = TRIVIAL_PRODUCTS[name]
        rng = random.Random(4)
        fs = [places.random_place(fp, rng) for _ in range(3)] + [places.unit(fp)]
        assert places.canonicalize(fp, [(2, x) for x in self.operands(fp)]) == places.zero(fp)
        for f in fs:
            assert f == places.zero(fp)
            for g in fs:
                assert places.meet(f, g) == places.join(f, g) == places.zero(fp)
                assert places.leq(f, g)
        for _ in range(5):
            f = places.random_place(fp.left, rng, positive=True)
            g = places.random_place(fp.right, rng, positive=True)
            assert tensor.psi_terms(fp, f.terms, g.terms) == places.zero(fp)
            assert tensor.psi(fp, f, g) == places.zero(fp)

    def test_report_form_round_trips(self, name):
        fp = TRIVIAL_PRODUCTS[name]
        for x in self.operands(fp):
            payload = grid_dict(x)
            assert payload == {"left_cells": [], "right_cells": [], "matrix": []}
            assert rectform_from_grid(fp, payload) == x

    def test_foreign_rectangle_rejected(self, name):
        fp = TRIVIAL_PRODUCTS[name]
        with pytest.raises(AlgebraError):
            fp.normalize([Rectangle(P2.one, FC.one)])


class TestPointMembership:
    def test_matches_rectangles(self):
        rng = random.Random(7)
        fp = FreeProduct(FC, FC)
        for _ in range(200):
            rects = random_rects(fp, rng)
            x = fp.normalize(rects)
            pts = [(p, q) for p in range(6) for q in range(6)]
            assert holds(x, pts) == [any(r.left.contains(p) and r.right.contains(q)
                                         for r in rects) for p, q in pts]

    def test_negative_naturals_are_not_points(self):
        fp = FreeProduct(FC, FC)
        for p, q in ((-1, -5), (-1, 0), (0, -1)):
            with pytest.raises(AlgebraError, match="not a point"):
                holds(fp.one, [(p, q)])
        assert holds(fp.one, [(0, 0), (TAIL, 0)]) == [True, True]
        for x in (FC.one, FC.cof([3]), FC.fin([0])):
            assert not x.contains(-1)
        with pytest.raises(AlgebraError, match="not a point"):
            holds(FreeProduct(P2, P2).one, [(0, 1)])


OVERLAY_PRODUCTS = {
    "P3xP4": (FreeProduct(P3, P4), powerset_elems(P3), powerset_elems(P4)),
    "FCxFC": (FreeProduct(FC, FC), fincof_elems(), fincof_elems()),
    "P2xFC": (FreeProduct(P2, FC), powerset_elems(P2), fincof_elems()),
}


def axis_points(alg, cells):
    """Points of one axis: every atom of a powerset; for finite_cofinite,
    [0..H] with H past every natural named in the cells, one natural
    further out, and the tail point."""
    if alg.kind == POWERSET:
        return list(range(1, alg.atom_count + 1))
    horizon = max((n for c in cells for n in c.data[1]), default=0) + 1
    return list(range(horizon + 1)) + [horizon + 1000, TAIL]


# products that hold no table of forms: n * m past MAX_ATOMS, a
# finite_cofinite factor, a trivial factor
NO_TABLE_PRODUCTS = {"P5xP4": FreeProduct(P5, P4), "P2xFC": FreeProduct(P2, FC),
                     "TxP3": FreeProduct(trivial_algebra(), P3)}
POINTWISE_PRODUCTS = {**{name: entry[0] for name, entry in OVERLAY_PRODUCTS.items()},
                      **NO_TABLE_PRODUCTS}
TABLE_PRODUCTS = {"P1xP1": FreeProduct(powerset(1), powerset(1)),
                  "P2xP3": FreeProduct(P2, powerset(3)),
                  "P3xP4": FreeProduct(P3, P4),
                  "P4xP4": FreeProduct(P4, P4)}  # n * m = 16 = MAX_ATOMS


def spread_through_signatures(fp, xs):
    """Oracle for the spread in ``_joint_cells``: the common grid from
    ``_meets`` and each grid's flat mask copied bit by bit through the
    signatures, cell (i, j) at bit i * len(R) + j."""
    if fp.is_trivial:
        return ((), ()), [0] * len(xs), 0
    L, lsig = _meets(fp.left, [x.left_cells for x in xs])
    R, rsig = _meets(fp.right, [x.right_cells for x in xs])
    masks = [sum((x.rows[ls[g]] >> rs[g] & 1) << (i * len(R) + j)
                 for i, ls in enumerate(lsig) for j, rs in enumerate(rsig))
             for g, x in enumerate(xs)]
    return (L, R), masks, len(L) * len(R)


def grid_route(fp, xs, op):
    """Oracle for the table route: ``op`` folded over the operands' flat
    masks on the signature spread, coarsened by ``_merge`` one axis at a
    time."""
    (L, R), masks, _ = spread_through_signatures(fp, xs)
    return free_product._coarsen(fp, L, R, reduce(op, masks))


def coarsen_join_cells(fp, payload, mask):
    """Oracle for ``join_cells``: the grid of the mask coarsened by
    ``_merge`` one axis at a time."""
    L, R = payload
    return free_product._coarsen(fp, L, R, mask)


def counting(calls, name):
    """``free_product``'s ``name``, counting its calls in ``calls[name]``."""
    original = getattr(free_product, name)

    def count(*args):
        calls[name] += 1
        return original(*args)
    return count


class TestTable:
    def test_which_products_hold_one(self):
        for fp in TABLE_PRODUCTS.values():
            assert isinstance(fp._forms, dict)
        for fp in [*NO_TABLE_PRODUCTS.values(), FreeProduct(FC, FC), FreeProduct(FC, P2)]:
            assert fp._forms is None
        # nothing is filled at construction
        assert FreeProduct(P4, P4)._forms == {}

    @pytest.mark.parametrize("name", sorted(TABLE_PRODUCTS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_operations_match_the_grid_route(self, name, data):
        fp = TABLE_PRODUCTS[name]
        n, m = fp.left.atom_count, fp.right.atom_count
        elems = grid_elems(fp, powerset_elems(fp.left), powerset_elems(fp.right))
        x, y, z = (data.draw(elems) for _ in range(3))
        meet, join, dsum = x & y, x | y, x ^ y
        assert meet == grid_route(fp, [x, y], and_)
        assert join == grid_route(fp, [x, y], or_)
        assert dsum == grid_route(fp, [x, y], xor)
        assert fp.join([x, y, z]) == grid_route(fp, [x, y, z], or_)
        assert fp.join([]) == fp.zero and fp.join([x]) == x
        _, (a, b), _ = spread_through_signatures(fp, [x, y])
        assert x.leq(y) == (a & ~b == 0)
        mask = data.draw(st.integers(0, (1 << (n * m)) - 1))
        from_mask = fp.from_atom_mask(mask)
        assert from_mask == free_product._coarsen(fp, fp.left.atoms(), fp.right.atoms(), mask)
        pts = [(p, q) for p in range(1, n + 1) for q in range(1, m + 1)]
        xs, ys = holds(x, pts), holds(y, pts)
        assert holds(meet, pts) == [u and v for u, v in zip(xs, ys)]
        assert holds(join, pts) == [u or v for u, v in zip(xs, ys)]
        assert holds(dsum, pts) == [u != v for u, v in zip(xs, ys)]
        assert holds(from_mask, pts) == [bool(mask >> k & 1) for k in range(n * m)]
        assert x.leq(y) == all(v or not u for u, v in zip(xs, ys))
        # equal results are the same object
        assert meet is y & x and join is y | x and dsum is y ^ x
        assert fp.join([y, x]) is join and fp.from_atom_mask(fp.atom_mask(meet)) is meet

    @pytest.mark.parametrize("name", sorted(TABLE_PRODUCTS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_grid_mask_reads_any_grid(self, name, data):
        """``_grid_mask`` of a grid with shuffled cells and repeated rows is
        the ``atom_mask`` of its canonical form; ``_join_cells`` refuses any
        grid but the atom pairs."""
        fp = TABLE_PRODUCTS[name]
        L = data.draw(partitions(fp.left, powerset_elems(fp.left)))
        R = data.draw(partitions(fp.right, powerset_elems(fp.right)))
        pool = data.draw(st.lists(st.integers(0, (1 << len(R)) - 1), min_size=1, max_size=3))
        rows = [data.draw(st.sampled_from(pool)) for _ in L]
        canonical = free_product._coarsen(fp, L, R, flat(rows, len(R)))
        assert free_product._grid_mask(fp, L, R, rows) == fp.atom_mask(canonical)
        with pytest.raises(AlgebraError, match="atom pairs"):
            free_product._join_cells(fp, (L, R), flat(rows, len(R)))

    @pytest.mark.parametrize("name", sorted(TABLE_PRODUCTS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_joint_cells_are_the_atom_pairs(self, name, data):
        """The common grid is the factors' own atom tuples and each part's
        flat mask its atom mask; a mask on it joins to the element of that
        atom mask, and a copy of the tuples is refused."""
        fp = TABLE_PRODUCTS[name]
        elems = grid_elems(fp, powerset_elems(fp.left), powerset_elems(fp.right))
        parts = data.draw(st.lists(elems, max_size=4))
        (L, R), masks, ncells = fp.joint_cells(parts)
        assert L is fp.left.atoms() and R is fp.right.atoms()
        assert masks == [fp.atom_mask(x) for x in parts] and ncells == fp.atom_count
        mask = data.draw(st.integers(0, (1 << fp.atom_count) - 1))
        want = fp.from_atom_mask(mask)
        assert fp.join_cells((L, R), mask) is want
        with pytest.raises(AlgebraError, match="atom pairs"):
            fp.join_cells((list(L), list(R)), mask)
        # bits past the last cell fill no table entry of their own
        assert fp.join_cells((L, R), mask | 1 << fp.atom_count) is want
        assert all(0 <= k < 1 << fp.atom_count for k in fp._forms)

    @pytest.mark.parametrize("name", sorted(TABLE_PRODUCTS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_place_operations_match_the_overlay_grid(self, name, data):
        """``canonicalize``, ``add_refine``, ``lattice`` and ``leq`` give what
        they give with ``joint_cells`` on the signature spread and
        ``join_cells`` by ``_coarsen``."""
        fp = TABLE_PRODUCTS[name]
        elems = grid_elems(fp, powerset_elems(fp.left), powerset_elems(fp.right))
        raw = data.draw(st.lists(st.tuples(rationals(), elems), max_size=5))
        f, g = places.canonicalize(fp, raw[:2]), places.canonicalize(fp, raw[2:])

        def compute():
            meet, join = places.lattice(f, g, "meet"), places.lattice(f, g, "join")
            return (places.canonicalize(fp, raw), places.add_refine(f, g), meet, join,
                    places.leq(f, g), places.leq(meet, g), places.leq(join, f))

        got = compute()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FreeProduct, "joint_cells", spread_through_signatures)
            mp.setattr(FreeProduct, "join_cells", coarsen_join_cells)
            want = compute()
        assert got == want

    def test_place_operations_overlay_nothing(self, monkeypatch):
        """Work guard: on a fresh P(3) (x) P(4), place-function sums, meets,
        joins and order refine no common axis."""
        fp = FreeProduct(P3, P4)
        calls = {"_common_axis": 0}
        monkeypatch.setattr(free_product, "_common_axis", counting(calls, "_common_axis"))
        x = fp.rect(P3.subset([1, 2]), P4.subset([2]))
        y = ~fp.rect(P3.subset([2]), P4.subset([1, 3]))
        f = places.canonicalize(fp, [(1, x), (2, y)])
        g = places.canonicalize(fp, [(-1, x | y), (3, x & y)])
        total = places.add_refine(f, g)
        assert places.leq(places.meet(f, g), places.join(f, g))
        assert total == places.add_formula(f, g)
        assert calls == {"_common_axis": 0}

    def test_join_cells_coarsens_each_atom_mask_once(self, monkeypatch):
        """Work guard on the one exit: on a fresh P(3) (x) P(4), an atom mask
        is coarsened once, the first time, and stored under itself; the same
        mask again, with or without bits past the last cell, is the stored
        object and coarsens nothing.  A grid that is not the atom pairs, as
        refined cells or as a copy of the atom tuples, is refused."""
        fp = FreeProduct(P3, P4)
        atoms = (fp.left.atoms(), fp.right.atoms())
        assert P3.joint_cells([P3.subset([1, 2])])[0] is atoms[0]
        mask = 0b1001 << 8 | 0b0110
        calls = {"_coarsen": 0}
        monkeypatch.setattr(free_product, "_coarsen", counting(calls, "_coarsen"))
        form = free_product._join_cells(fp, atoms, mask)
        assert calls == {"_coarsen": 1}
        assert fp._forms == {mask: form} and fp.atom_mask(form) == mask
        for again in (mask, mask | 1 << fp.atom_count):
            assert free_product._join_cells(fp, atoms, again) is form
        refined = (algebra.refine_partition(P3.one, [P3.subset([1, 2])]),
                   algebra.refine_partition(P4.one, [P4.subset([2, 4]), P4.subset([1])]))
        for grid in (refined, (list(atoms[0]), list(atoms[1]))):
            with pytest.raises(AlgebraError, match="atom pairs"):
                free_product._join_cells(fp, grid, mask)
        assert calls == {"_coarsen": 1}

    def test_canonicalize_coarsens_once_per_value(self, monkeypatch):
        """Work guard: over fincof (x) fincof, ``places.canonicalize``
        coarsens once per distinct nonzero cell value: here the common grid
        is 3 x 4, and its 12 cells take the values 0, 1, 2, 4 and 6."""
        fp = FreeProduct(FC, FC)
        a, b = FC.fin([0, 1]), FC.cof([1, 2])
        raw = [(1, fp.rect(a, b)), (2, fp.rect(~a, FC.one)), (4, fp.rect(FC.one, FC.fin([2]))),
               (-1, fp.rect(FC.fin([1]), FC.fin([3])))]
        calls = {"_coarsen": 0}
        monkeypatch.setattr(free_product, "_coarsen", counting(calls, "_coarsen"))
        f = places.canonicalize(fp, raw)
        assert sorted(c for c, _ in f.terms) == [1, 2, 4, 6]
        assert calls == {"_coarsen": 4}

    def test_no_overlay_and_no_second_merge(self, monkeypatch):
        """Work guard: on a fresh P(3) (x) P(4), ``&``, ``|``, ``^``, ``leq``
        and ``join`` refine no common axis, and repeating them coarsens
        nothing."""
        fp = FreeProduct(P3, P4)
        x = fp.rect(P3.subset([1, 2]), P4.subset([2]))
        y = ~fp.rect(P3.subset([2]), P4.subset([1, 3]))
        calls = {"_common_axis": 0, "_merge": 0}
        for name in calls:
            monkeypatch.setattr(free_product, name, counting(calls, name))
        ops = [lambda: x & y, lambda: x | y, lambda: x ^ y, lambda: x.leq(y),
               lambda: fp.join([x, y, ~x])]
        first = [op() for op in ops]
        assert calls["_common_axis"] == 0 and calls["_merge"] > 0
        calls["_merge"] = 0
        assert [op() for op in ops] == first
        assert calls == {"_common_axis": 0, "_merge": 0}


class TestJoin:
    def test_one_overlay(self, monkeypatch):
        """Work guard: the join of k grids refines each axis of all k once."""
        fp = FreeProduct(FC, FC)
        xs = [fp.rect(FC.fin([n]), FC.cof([n])) for n in range(5)]
        want = xs[0] | xs[1] | xs[2] | xs[3] | xs[4]
        calls = []
        common_axis = free_product._common_axis
        monkeypatch.setattr(free_product, "_common_axis",
                            lambda alg, axes: calls.append(len(axes)) or common_axis(alg, axes))
        assert fp.join(xs) == want
        assert calls == [5, 5]


class TestOverlay:
    @pytest.mark.parametrize("name", sorted(OVERLAY_PRODUCTS))
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_refine_partition(self, name, data):
        fp, left, right = OVERLAY_PRODUCTS[name]
        xs = data.draw(st.lists(grid_elems(fp, left, right), min_size=1, max_size=3))

        def grid(left_cells, right_cells):
            top = (1 << len(right_cells)) - 1
            return RectForm(fp, left_cells, right_cells,
                            tuple(data.draw(st.integers(0, top)) for _ in left_cells))

        # draws where every grid has the same cells on one axis or on both
        x, y = xs[0], xs[-1]
        shared = data.draw(st.sampled_from(["none", "repeat", "both", "left", "right"]))
        if shared == "repeat":
            xs = [x] * len(xs)
        elif shared == "both":
            xs = [x, ~x, grid(x.left_cells, x.right_cells)]
        elif shared == "left":
            xs = [x, grid(x.left_cells, y.right_cells)]
        elif shared == "right":
            xs = [x, grid(y.left_cells, x.right_cells)]
        (L, R), masks, ncells = _joint_cells(fp, xs)
        if fp._forms is None:
            assert L == split_refine(fp.left.one, [c for x in xs for c in x.left_cells])
            assert R == split_refine(fp.right.one, [c for x in xs for c in x.right_cells])
        else:
            assert L is fp.left.atoms() and R is fp.right.atoms()
        assert ncells == len(L) * len(R)
        for x, mask in zip(xs, masks):
            assert mask >> ncells == 0
            for i, lc in enumerate(L):
                a = next(k for k, c in enumerate(x.left_cells) if lc.leq(c))
                for j, rc in enumerate(R):
                    b = next(k for k, c in enumerate(x.right_cells) if rc.leq(c))
                    assert (mask >> (i * len(R) + j) & 1) == (x.rows[a] >> b & 1)

    @pytest.mark.parametrize("name", sorted(OVERLAY_PRODUCTS) + ["P5xP4", "TxFC"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_rows_are_the_spread_through_signatures(self, name, data):
        """Each grid's flat mask on the common cells, bit by bit through the
        signatures, among them a grid whose own cells are the common cells,
        in their order or shuffled, a grid whose own cells each join a drawn
        group of common cells, so that an own column lies over several
        common columns, and a grid that comes twice.  On a product with a
        table the atom masks and the spread name the same elements."""
        if name == "TxFC":
            fp = TRIVIAL_PRODUCTS[name]
            left, right = powerset_elems(fp.left), fincof_elems()
        elif name == "P5xP4":
            fp, left, right = NO_TABLE_PRODUCTS[name], powerset_elems(P5), powerset_elems(P4)
        else:
            fp, left, right = OVERLAY_PRODUCTS[name]
        xs = data.draw(st.lists(grid_elems(fp, left, right), min_size=1, max_size=3))
        (L, R), _, _ = spread_through_signatures(fp, xs)

        def grouped(alg, cells):
            # the cells shuffled and cut into runs, each run joined to one cell
            cells = data.draw(st.permutations(cells))
            cuts = sorted(data.draw(st.sets(st.integers(1, max(len(cells) - 1, 1)))))
            bounds = [0, *[c for c in cuts if c < len(cells)], len(cells)]
            return tuple(alg.join(cells[a:b]) for a, b in zip(bounds, bounds[1:]) if a < b)

        def grid(left_cells, right_cells):
            top = (1 << len(right_cells)) - 1
            return RectForm(fp, tuple(left_cells), tuple(right_cells),
                            tuple(data.draw(st.integers(0, top)) for _ in left_cells))

        fine = grid(data.draw(st.permutations(L)), data.draw(st.permutations(R)))
        coarse = grid(grouped(fp.left, L), grouped(fp.right, R))
        for extra in (fine, coarse, data.draw(st.sampled_from(xs))):
            xs.insert(data.draw(st.integers(0, len(xs))), extra)
        grid, got, ncells = _joint_cells(fp, xs)
        (L, R), want, _ = spread_through_signatures(fp, xs)
        if fp._forms is None:
            assert [list(cells) for cells in grid] == [list(L), list(R)]
            assert got == want and ncells == len(L) * len(R)
        else:
            assert ([free_product._coarsen(fp, *grid, m) for m in got]
                    == [free_product._coarsen(fp, L, R, m) for m in want])

    def test_diagonal_chain_spreads_in_three_runs(self, monkeypatch):
        """Work guard: along a 64-step diagonal chain from the unit, each
        ``improved.leq(u)`` spreads ``improved`` in one run and ``u`` in at
        most three: ``u``'s columns land on the common ones in order, one
        each but the tail, which lands on two."""
        fp = FreeProduct(FC, FC)
        cert = certs.no_supremum_certificate(certs.DIAGONAL_FAMILY, fp.one, steps=64)
        runs = []
        original = free_product._runs
        monkeypatch.setattr(free_product, "_runs",
                            lambda sources: runs.append(original(sources)) or runs[-1])
        for step in cert.steps:
            runs.clear()
            assert step.improved.leq(step.upper_bound)
            assert len(runs) == 2 and len(runs[0]) == 1 and len(runs[1]) <= 3

    @pytest.mark.parametrize("name", sorted(POINTWISE_PRODUCTS))
    def test_operations_agree_pointwise(self, name):
        fp = POINTWISE_PRODUCTS[name]
        rng = random.Random(8)
        for k in range(60):
            x, y = fp.random_elem(rng), fp.random_elem(rng)
            if k % 3 == 0:
                y = x | y  # make leq hold often
            P = axis_points(fp.left, x.left_cells + y.left_cells)
            Q = axis_points(fp.right, x.right_cells + y.right_cells)
            pts = [(p, q) for p in P for q in Q]
            xs, ys = holds(x, pts), holds(y, pts)
            assert holds(x & y, pts) == [a and b for a, b in zip(xs, ys)]
            assert holds(x | y, pts) == [a or b for a, b in zip(xs, ys)]
            assert holds(x ^ y, pts) == [a != b for a, b in zip(xs, ys)]
            assert holds(~x, pts) == [not a for a in xs]
            assert x.leq(y) == all(b or not a for a, b in zip(xs, ys))


def side_elems(alg):
    """Rectangle sides: the unit, or any drawn element (P(0) has only zero)."""
    elems = fincof_elems() if alg.kind != POWERSET else powerset_elems(alg)
    return st.one_of(st.just(alg.one), elems)


SHORTCUT_PRODUCTS = {name: entry[0] for name, entry in OVERLAY_PRODUCTS.items()}
SHORTCUT_PRODUCTS.update(TRIVIAL_PRODUCTS)


class TestSingleRectangle:
    @pytest.mark.parametrize("name", sorted(SHORTCUT_PRODUCTS))
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_the_general_path(self, name, data):
        fp = SHORTCUT_PRODUCTS[name]
        r = Rectangle(data.draw(side_elems(fp.left)), data.draw(side_elems(fp.right)))
        x = fp.normalize([r])
        assert x == fp.normalize([r, r]) == fp.rect(r.left, r.right)
        assert x == rectform_from_grid(fp, grid_dict(x))  # canonical as built

    @pytest.mark.parametrize("name", sorted(OVERLAY_PRODUCTS))
    def test_two_refinements_per_normalize(self, name, monkeypatch):
        """perfbench's tracer reads two refinement spans, or none, under each
        ``normalize`` span; count the calls through every binding it
        patches.  One nonzero rectangle refines each axis once; several
        take the factors' point cells and refine nothing."""
        fp = OVERLAY_PRODUCTS[name][0]
        calls = [0]
        original = algebra.refine_partition

        def counting(one, parts):
            calls[0] += 1
            return original(one, parts)

        for mod in (algebra, free_product, tensor):
            monkeypatch.setattr(mod, "refine_partition", counting)
        rng = random.Random(4)
        checked = {1: 0, 2: 0, 3: 0}
        for k in range(60):
            rects = [Rectangle(fp.left.random_elem(rng), fp.right.random_elem(rng))
                     for _ in range(1 + k % 3)]
            live = sum(not r.is_zero() for r in rects)
            if live:
                calls[0] = 0
                fp.normalize(rects)
                assert calls[0] == (2 if live == 1 else 0), len(rects)
                checked[live] += 1
        assert all(checked.values()), checked


def naive_meets(alg, partitions):
    """Reference common refinement: meet every cell of each partition with
    every cell built so far, keep the nonzero meets, sort by ``sort_key``."""
    cells = [(alg.one, ())]
    for part in partitions:
        cells = [(m, src + (k,)) for c, src in cells for k, p in enumerate(part)
                 if not (m := c & p).is_zero()]
    cells.sort(key=lambda t: alg.sort_key(t[0]))
    return [c for c, _ in cells], [src for _, src in cells]


MEETS_AXES = {
    "P3": (P3, powerset_elems(P3)),
    "P4": (P4, powerset_elems(P4)),
    "FC": (FC, fincof_elems()),
}


class TestMeets:
    @pytest.mark.parametrize("name", sorted(MEETS_AXES))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_pairwise_reference(self, name, data):
        alg, elems = MEETS_AXES[name]
        parts = data.draw(st.lists(partitions(alg, elems), min_size=1, max_size=3))
        assert _meets(alg, parts) == naive_meets(alg, parts)

    @pytest.mark.parametrize("cells", [
        [FC.fin([0])],                                  # no cofinite cell
        [FC.cof([0]), FC.fin([0]), FC.cof([1])],        # two cofinite cells
        [FC.fin([0, 1]), FC.fin([1]), FC.cof([0, 1])],  # 1 in two fin cells
        [FC.fin([0]), FC.cof()],                        # 0 in fin and cof
        [FC.fin([0]), FC.cof([0, 1])],                  # 1 in no cell
    ])
    def test_malformed_axis_rejected(self, cells):
        with pytest.raises(AlgebraError):
            _meets(FC, [cells])
        with pytest.raises(AlgebraError):
            _meets(FC, [[FC.one], cells])

    def test_no_cell_meets_on_fincof(self, monkeypatch):
        """Work guard: the overlay of two grids of about 40 cells per axis
        runs ``_meets`` without meeting any two cells."""
        fp = FreeProduct(FC, FC)
        x = fp.normalize([Rectangle(FC.fin([n]), FC.fin([n])) for n in range(40)])
        y = fp.normalize([Rectangle(FC.fin([n]), FC.fin([n + 1])) for n in range(0, 80, 2)])
        assert min(len(x.left_cells), len(y.right_cells)) >= 40
        counts = {"meets": 0, "and": 0}
        inside = []
        elem_and, kernel = Elem.__and__, free_product._meets

        def counting_and(a, b):
            counts["and"] += bool(inside)
            return elem_and(a, b)

        def counting_meets(alg, parts):
            counts["meets"] += 1
            inside.append(True)
            try:
                return kernel(alg, parts)
            finally:
                inside.pop()

        monkeypatch.setattr(Elem, "__and__", counting_and)
        monkeypatch.setattr(free_product, "_meets", counting_meets)
        x.leq(y)
        x & y
        assert counts == {"meets": 4, "and": 0}
        # the counter sees the meets the pairwise reference makes
        inside.append(True)
        naive_meets(FC, [x.left_cells, y.left_cells])
        assert counts["and"] >= 40 * 40


def join_of_rects(fp, rng):
    """Oracle for ``FreeProduct.random_elem``: each drawn rectangle built as
    a form by ``rect``, the forms joined by ``join``, then complemented
    with probability 0.3."""
    if fp.is_trivial:
        return fp.zero
    out = fp.join([fp.rect(fp.left.random_elem(rng), fp.right.random_elem(rng))
                   for _ in range(rng.randint(1, 3))])
    if rng.random() < 0.3:
        out = ~out
    return out


DRAW_PRODUCTS = {**TABLE_PRODUCTS, **TRIVIAL_PRODUCTS,
                 "P5xP4": FreeProduct(P5, P4), "P2xFC": FreeProduct(P2, FC),
                 "FCxP2": FreeProduct(FC, P2), "FCxFC": FreeProduct(FC, FC)}


class TestRandomElem:
    @pytest.mark.parametrize("name", sorted(DRAW_PRODUCTS))
    def test_matches_the_join_of_rectangles(self, name):
        """One ``normalize`` of the drawn rectangles is the element the
        join of their forms gives, and the rng ends in the same state."""
        fp = DRAW_PRODUCTS[name]
        for seed in range(60):
            ours, oracle = random.Random(seed), random.Random(seed)
            for _ in range(4):
                assert fp.random_elem(ours) == join_of_rects(fp, oracle), seed
            assert ours.getstate() == oracle.getstate()

    @pytest.mark.parametrize("name", sorted(DRAW_PRODUCTS))
    def test_no_join_during_a_draw(self, name, monkeypatch):
        """Work guard: a draw builds its element in one ``normalize``, with
        no ``FreeProduct.join`` and no ``_joint_cells``."""
        fp = DRAW_PRODUCTS[name]

        def refuse(*args):
            raise AssertionError("a draw joined forms")

        monkeypatch.setattr(FreeProduct, "join", refuse)
        monkeypatch.setattr(free_product, "_joint_cells", refuse)
        rng = random.Random(7)
        for _ in range(100):
            fp.random_elem(rng)
