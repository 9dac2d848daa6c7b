import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balg.algebra import POWERSET, AlgebraError, Elem, powerset, trivial_algebra
from balg.free_product import FreeProduct
from balg import places, tensor
from conftest import FC, INEXACT, P3, fincof_elems, powerset_elems, rationals


def atomwise(alg, raw):
    """Oracle: per-atom values of a raw coefficient/support list, summed by
    brute membership, grouped by value."""
    values = {}
    for p in range(1, alg.atom_count + 1):
        total = sum((Fraction(c) for c, x in raw if x.contains(p)), Fraction(0))
        if total != 0:
            values[p] = total
    return values


def place_values(f):
    values = {}
    for c, x in f.terms:
        for p in range(1, f.backend.atom_count + 1):
            if x.contains(p):
                values[p] = c
    return values


def place_strategy(alg, elems):
    return st.lists(st.tuples(rationals(), elems), max_size=3).map(
        lambda raw: places.canonicalize(alg, raw))


places_p3 = place_strategy(P3, powerset_elems(P3))
places_fc = place_strategy(FC, fincof_elems())


class TestCanonicalize:
    def test_equal_coefficients_merge(self):
        f = places.canonicalize(P3, [(1, P3.subset([1])), (1, P3.subset([2]))])
        assert f.terms == ((Fraction(1), P3.subset([1, 2])),)

    def test_cancellation(self):
        f = places.canonicalize(P3, [(2, P3.subset([1])), (-2, P3.subset([1]))])
        assert f.is_zero()

    def test_overlap_sums_atomwise(self):
        raw = [(Fraction(2), P3.subset([1, 2])), (Fraction(3), P3.subset([2, 3]))]
        f = places.canonicalize(P3, raw)
        assert f.terms == ((Fraction(2), P3.subset([1])),
                           (Fraction(5), P3.subset([2])),
                           (Fraction(3), P3.subset([3])))
        assert place_values(f) == atomwise(P3, raw)

    def test_matches_atomwise_oracle(self):
        rng = random.Random(0)
        p5 = powerset(5)
        for _ in range(300):
            raw = [(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                    p5.random_elem(rng)) for _ in range(rng.randint(0, 4))]
            f = places.canonicalize(p5, raw)
            assert place_values(f) == atomwise(p5, raw)

    def test_invariants(self):
        rng = random.Random(1)
        for backend in (P3, FC, FreeProduct(FC, FC)):
            for _ in range(100):
                f = places.random_place(backend, rng)
                coeffs = [c for c, _ in f.terms]
                assert all(c != 0 for c in coeffs)
                assert len(set(coeffs)) == len(coeffs)
                supports = [x for _, x in f.terms]
                assert all(not x.is_zero() for x in supports)
                for i in range(len(supports)):
                    for j in range(i + 1, len(supports)):
                        assert (supports[i] & supports[j]).is_zero()

    def test_trivial_backend_collapses(self):
        t = trivial_algebra()
        assert places.canonicalize(t, [(1, t.one)]).is_zero()
        f = places.unit(t)
        assert places.meet(f, f) == places.join(f, f) == places.zero(t)
        assert places.leq(f, places.zero(t))

    def test_foreign_supports_rejected(self):
        """A support from another backend raises even when it is zero or
        under a zero coefficient."""
        P2, P5 = powerset(2), powerset(5)
        for raw in ([(1, P5.zero)], [(0, P5.subset([1]))], [(1, P2.one), (0, FC.one)],
                    [(1, P2.one), (2, FreeProduct(P2, P2).zero)]):
            with pytest.raises(AlgebraError):
                places.canonicalize(P2, raw)
        fp = FreeProduct(P2, P3)
        with pytest.raises(AlgebraError):
            places.canonicalize(fp, [(1, fp.one), (0, FreeProduct(P2, P2).one)])

    def test_cells_join_without_pairwise_or(self, monkeypatch):
        """Work guard: over fincof, canonicalize and lattice join the cells
        sharing a coefficient in one step, with no ``Elem.__or__`` call; a
        pairwise fold makes one per cell, 41 in ``canonicalize`` here."""
        raw = [(Fraction(1 + n % 2), FC.fin([n, n + 1])) for n in range(40)]
        g = places.chi(FC.cof(range(0, 80, 3)))
        calls = []
        elem_or = Elem.__or__
        monkeypatch.setattr(Elem, "__or__", lambda a, b: calls.append(1) or elem_or(a, b))
        f = places.canonicalize(FC, raw)
        places.meet(f, g)
        places.join(f, g)
        assert calls == []
        assert f.terms == ((1, FC.fin([0])), (3, FC.fin(range(1, 40))), (2, FC.fin([40])))


class TestCoefficients:
    """A coefficient is an int (not a bool) or a Fraction; anything else
    raises AlgebraError, under a zero support too."""

    @pytest.mark.parametrize("c", list(INEXACT.values()), ids=list(INEXACT))
    def test_canonicalize_refuses(self, c):
        P2 = powerset(2)
        for raw in ([(c, P2.subset([1]))], [(c, P2.zero)], [(1, P2.one), (c, P2.subset([2]))]):
            with pytest.raises(AlgebraError):
                places.canonicalize(P2, raw)

    @pytest.mark.parametrize("c", list(INEXACT.values()), ids=list(INEXACT))
    def test_scale_refuses(self, c):
        for f in (places.chi(P3.subset([1])), places.zero(P3)):
            with pytest.raises(AlgebraError):
                places.scale(c, f)

    def test_cell_route_refuses_a_hand_built_function(self):
        """A function built directly skips ``_live_terms``; the cell route
        still refuses its float coefficient, on either side."""
        P2 = powerset(2)
        f, g = places.PlaceFunction(P2, ((0.5, P2.one),)), places.chi(P2.subset([1]))
        for op in (places.leq, places.join, places.meet):
            for a, b in ((f, f), (f, g), (g, f)):
                with pytest.raises(AlgebraError, match="coefficient"):
                    op(a, b)
        with pytest.raises(AlgebraError, match="coefficient"):
            tensor.to_atom_model(f)


class TestChi:
    def test_examples(self):
        assert places.chi(P3.subset([1, 2])).terms == ((Fraction(1), P3.subset([1, 2])),)
        assert places.chi(P3.zero).is_zero()
        assert places.chi(P3.one) == places.unit(P3)

    def test_components(self):
        assert places.is_component(places.chi(P3.subset([2])))
        assert not places.is_component(places.scale(2, places.chi(P3.subset([2]))))
        rng = random.Random(2)
        for _ in range(100):
            assert places.is_component(places.chi(FC.random_elem(rng)))

    def test_component_requires_positive(self):
        with pytest.raises(AlgebraError, match="positive"):
            places.is_component(places.scale(-1, places.chi(P3.subset([1]))))

    def test_components_are_characteristics(self):
        rng = random.Random(3)
        for _ in range(200):
            f = places.random_place(P3, rng, positive=True)
            if places.is_component(f):
                x = places.as_element(f)
                assert x is not None and places.chi(x) == f


class TestAddition:
    def test_worked_example(self):
        f = places.scale(2, places.chi(P3.subset([1, 2])))
        g = places.scale(3, places.chi(P3.subset([2, 3])))
        expected = ((Fraction(2), P3.subset([1])), (Fraction(5), P3.subset([2])),
                    (Fraction(3), P3.subset([3])))
        assert places.add_formula(f, g).terms == expected
        assert places.add_refine(f, g).terms == expected

    def test_cofinite_example(self):
        f = places.chi(FC.cof([0]))
        g = places.chi(FC.fin([0]))
        assert places.add_formula(f, g) == places.unit(FC)
        assert places.add_refine(f, g) == places.unit(FC)

    @settings(max_examples=200)
    @given(places_p3, places_p3)
    def test_oracle_equivalence_powerset(self, f, g):
        assert places.add_formula(f, g) == places.add_refine(f, g)

    @settings(max_examples=200)
    @given(places_fc, places_fc)
    def test_oracle_equivalence_fincof(self, f, g):
        assert places.add_formula(f, g) == places.add_refine(f, g)

    def test_oracle_equivalence_over_product(self):
        rng = random.Random(4)
        fp = FreeProduct(FC, FC)
        for _ in range(100):
            f = places.random_place(fp, rng)
            g = places.random_place(fp, rng)
            assert places.add_formula(f, g) == places.add_refine(f, g)

    @given(places_fc)
    def test_additive_inverse(self, f):
        assert (f + (-f)).is_zero()
        assert (f + places.zero(FC)) == f

    @given(places_p3, places_p3, places_p3)
    def test_vector_space_laws(self, f, g, h):
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)

    @given(rationals(), places_p3, places_p3)
    def test_scaling(self, c, f, g):
        assert places.scale(c, f + g) == places.scale(c, f) + places.scale(c, g)
        assert places.scale(0, f).is_zero()
        assert places.scale(1, f) == f
        assert places.scale(-1, places.scale(2, places.chi(P3.subset([1])))).terms \
            == ((Fraction(-2), P3.subset([1])),)


class TestLattice:
    def test_meet_example(self):
        f = places.scale(2, places.chi(P3.subset([1, 2])))
        g = places.scale(3, places.chi(P3.subset([2, 3])))
        # cellwise minimum: min(2,0) on {1}, min(2,3) on {2}, min(0,3) on {3}
        assert places.meet(f, g).terms == ((Fraction(2), P3.subset([2])),)

    def test_join_example(self):
        f = places.scale(2, places.chi(P3.subset([1, 2])))
        g = places.scale(3, places.chi(P3.subset([2, 3])))
        assert places.join(f, g).terms == ((Fraction(2), P3.subset([1])),
                                           (Fraction(3), P3.subset([2, 3])))

    def test_lattice_matches_pointwise_oracle(self):
        rng = random.Random(5)
        for _ in range(200):
            f = places.random_place(P3, rng)
            g = places.random_place(P3, rng)
            fv, gv = place_values(f), place_values(g)
            for op, name in ((min, "meet"), (max, "join")):
                got = place_values(places.lattice(f, g, name))
                want = {}
                for p in (1, 2, 3):
                    v = op(fv.get(p, Fraction(0)), gv.get(p, Fraction(0)))
                    if v != 0:
                        want[p] = v
                assert got == want

    def test_unknown_operation_is_an_algebra_error(self):
        f = places.chi(P3.subset([1]))
        with pytest.raises(AlgebraError, match="which"):
            places.lattice(f, f, "max")

    @given(places_fc, places_fc)
    def test_meet_join_identity(self, f, g):
        assert places.meet(f, g) + places.join(f, g) == f + g

    @given(places_fc)
    def test_abs(self, f):
        assert places.abs_(places.scale(-1, f)) == places.abs_(f)
        assert places.leq(places.zero(FC), places.abs_(f))

    @given(places_p3, places_p3, places_p3)
    def test_order_translation(self, f, g, h):
        if places.leq(f, g):
            assert places.leq(f + h, g + h)

    @pytest.mark.parametrize("drawn", [places_p3, places_fc], ids=["powerset", "fincof"])
    @settings(max_examples=200)
    @given(data=st.data())
    def test_value_methods_match_the_functions(self, drawn, data):
        # generic verifiers read scale and meet off the values
        f, g, c = data.draw(drawn), data.draw(drawn), data.draw(rationals())
        assert f.scale(c) == places.scale(c, f)
        assert f.meet(g) == places.meet(f, g)

    def test_archimedean_escape(self):
        rng = random.Random(6)
        for _ in range(200):
            f = places.random_place(P3, rng, positive=True)
            if f.is_zero():
                continue
            g = f + places.random_place(P3, rng, positive=True)
            n = max(c for c, _ in g.terms) // min(c for c, _ in f.terms) + 1
            assert not places.leq(places.scale(n, f), g)


class TestEquivalence:
    def test_split_representations_identify(self):
        rng = random.Random(7)
        from balg.tensor import split_representation

        for backend in (P3, FC):
            for _ in range(200):
                f = places.random_place(backend, rng)
                assert places.canonicalize(backend, split_representation(f, rng)) == f

    def test_paper_equivalence_relation(self):
        # same total support, same coefficient wherever supports overlap
        f_raw = [(Fraction(2), P3.subset([1])), (Fraction(2), P3.subset([2]))]
        g_raw = [(Fraction(2), P3.subset([1, 2]))]
        assert places.canonicalize(P3, f_raw) == places.canonicalize(P3, g_raw)
        h_raw = [(Fraction(2), P3.subset([1])), (Fraction(3), P3.subset([2]))]
        assert places.canonicalize(P3, h_raw) != places.canonicalize(P3, g_raw)

    def test_span_reconstruction(self):
        rng = random.Random(8)
        for backend in (P3, FC):
            for _ in range(100):
                f = places.random_place(backend, rng)
                rebuilt = places.zero(backend)
                for c, x in f.terms:
                    rebuilt = rebuilt + places.scale(c, places.chi(x))
                assert rebuilt == f


class TestRegularity:
    def test_powerset_example(self):
        v = places.check_regularity([P3.subset([1]), P3.subset([2])],
                                    P3.subset([1, 2]), rng=random.Random(0))
        assert v.ok

    def test_singleton(self):
        v = places.check_regularity([P3.subset([2, 3])], P3.subset([2, 3]),
                                    rng=random.Random(0))
        assert v.ok

    def test_fincof_example(self):
        v = places.check_regularity([FC.fin([0]), FC.fin([1])], FC.fin([0, 1]),
                                    rng=random.Random(0))
        assert v.ok

    def test_wrong_supremum_rejected(self):
        v = places.check_regularity([P3.subset([1])], P3.subset([1, 2]),
                                    rng=random.Random(0))
        assert not v.ok

    def test_random_families(self):
        rng = random.Random(9)
        for backend in (P3, FC):
            for _ in range(30):
                xs = [x for x in (backend.random_elem(rng) for _ in range(3))
                      if not x.is_zero()]
                if not xs:
                    continue
                v = places.check_regularity(xs, backend.sup(xs), rng=rng, trials=20)
                assert v.ok, v.detail


# -- an independent point oracle -------------------------------------------------

# pairwise coprime denominators near 10**6
COPRIME = (999983, 999979, 999961, 999959, 2**19, 3**12)


def exact_coefficients():
    """Signed ints, and rationals whose denominators reach 10**6."""
    denominators = st.one_of(st.integers(1, 10**6), st.sampled_from(COPRIME))
    return st.one_of(st.integers(-9, 9),
                     st.builds(Fraction, st.integers(-10**6, 10**6), denominators))


@st.composite
def raw_terms(draw, elems):
    """Up to four terms, and the negation of some of them on the same
    support or another, so that sums cancel to zero on whole cells."""
    raw = draw(st.lists(st.tuples(exact_coefficients(), elems), max_size=4))
    for c, x in list(raw):
        if draw(st.booleans()):
            raw.append((-c, draw(st.one_of(st.just(x), elems))))
    return raw


@st.composite
def backend_and_raws(draw):
    """A backend, P(n) for n <= 8 or fincof, and three raw term lists over it."""
    backend = draw(st.one_of(st.integers(1, 8).map(powerset), st.just(FC)))
    elems = powerset_elems(backend) if backend.kind == POWERSET else fincof_elems()
    return backend, [draw(raw_terms(elems)) for _ in range(3)]


def points(backend, elems) -> list[int]:
    """Points that meet every cell the elements cut: the atoms of P(n); over
    fincof, each natural an element names and one past all of them."""
    if backend.kind == POWERSET:
        return list(range(1, backend.atom_count + 1))
    named = sorted({n for x in elems for n in x.data[1]})
    return named + [named[-1] + 1 if named else 0]


def value(terms, p) -> Fraction:
    """The value at p of a coefficient/support list, by Fraction arithmetic."""
    return sum((Fraction(c) for c, x in terms if x.contains(p)), Fraction(0))


def assert_canonical_at(f, pts):
    coeffs = [c for c, _ in f.terms]
    assert all(type(c) is Fraction and c != 0 for c in coeffs)
    assert len(set(coeffs)) == len(coeffs)
    for _, x in f.terms:
        assert any(x.contains(p) for p in pts)
    for p in pts:
        assert sum(x.contains(p) for _, x in f.terms) <= 1


class TestPointOracle:
    """Each place operation agrees with Fraction arithmetic at every point
    that meets a cell, read through ``contains`` alone."""

    @settings(max_examples=150, deadline=None)
    @given(backend_and_raws())
    def test_operations_match_point_values(self, drawn):
        backend, (raw_f, raw_g, raw_h) = drawn
        f = places.canonicalize(backend, raw_f)
        g = places.canonicalize(backend, raw_g)
        h = places.canonicalize(backend, raw_f + raw_g + raw_h)
        results = {"sum": places.add_refine(f, g), "join": places.join(f, g),
                   "meet": places.meet(f, g)}
        elems = [x for raw in (raw_f, raw_g, raw_h) for _, x in raw]
        elems += [x for r in (f, g, h, *results.values()) for _, x in r.terms]
        pts = points(backend, elems)
        for r in (f, g, h, *results.values()):
            assert_canonical_at(r, pts)
        for p in pts:
            fv, gv = value(f.terms, p), value(g.terms, p)
            assert fv == value(raw_f, p) and gv == value(raw_g, p)
            assert value(h.terms, p) == value(raw_f + raw_g + raw_h, p)
            assert value(results["sum"].terms, p) == fv + gv
            assert value(results["join"].terms, p) == max(fv, gv)
            assert value(results["meet"].terms, p) == min(fv, gv)
        assert places.leq(f, g) == all(value(f.terms, p) <= value(g.terms, p) for p in pts)

    @pytest.mark.parametrize("right", [powerset(3), FC], ids=["P2 x P3", "P2 x fincof"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_psi_matches_the_rectangle_route(self, right, data):
        fp = FreeProduct(powerset(2), right)
        right_elems = powerset_elems(right) if right.kind == POWERSET else fincof_elems()
        f = places.canonicalize(fp.left, data.draw(raw_terms(powerset_elems(fp.left))))
        g = places.canonicalize(right, data.draw(raw_terms(right_elems)))
        assert tensor.psi_terms(fp, f.terms, g.terms) == \
            tensor.psi_terms_by_rectangles(fp, f.terms, g.terms)


class TestIntegerRoute:
    """Work guards: the cell route sums, compares and takes min or max on
    integers over a common denominator, and builds one Fraction per value."""

    @staticmethod
    def family():
        """The 3 x 4 fincof (x) fincof family of the free-product table
        tests, with two coefficients over the denominator 3."""
        fp = FreeProduct(FC, FC)
        a, b = FC.fin([0, 1]), FC.cof([1, 2])
        return fp, [(Fraction(1, 3), fp.rect(a, b)), (2, fp.rect(~a, FC.one)),
                    (4, fp.rect(FC.one, FC.fin([2]))),
                    (Fraction(-1, 3), fp.rect(FC.fin([1]), FC.fin([3])))]

    def test_no_fraction_arithmetic(self, monkeypatch):
        fp, raw = self.family()

        def refuse(*args):
            raise AssertionError("Fraction arithmetic on the cell route")

        for name in ("__add__", "__radd__", "__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(Fraction, name, refuse)
        f, g = places.canonicalize(fp, raw[:2]), places.canonicalize(fp, raw[2:])
        got = (places.canonicalize(fp, raw), places.add_refine(f, g), places.join(f, g),
               places.meet(f, g), places.leq(f, g), places.leq(places.meet(f, g), g))
        monkeypatch.undo()
        whole, total, join, meet, below, meet_below = got
        assert whole == total == places.add_formula(f, g)
        assert places.add_refine(join, meet) == total
        assert not below and meet_below

    def test_one_fraction_per_distinct_value(self, monkeypatch):
        fp, raw = self.family()
        payload, masks, ncells = fp.joint_cells([x for _, x in raw])
        d, nums = places._common(c for c, _ in raw)
        values = places._cell_sums(nums, masks, ncells)
        assert (ncells, d, sorted(set(values))) == (12, 3, [0, 1, 6, 12, 18])
        built = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__",
                            lambda cls, *a, **k: built.append(a) or new(cls, *a, **k))
        f = places.from_cell_values(fp, payload, enumerate(values), d)
        monkeypatch.undo()
        assert sorted(built) == [(1, 3), (6, 3), (12, 3), (18, 3)]
        assert sorted(c for c, _ in f.terms) == [Fraction(1, 3), 2, 4, 6]
