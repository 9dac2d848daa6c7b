import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balg.algebra import Elem, powerset, trivial_algebra
from balg.free_product import FreeProduct
from balg import places
from conftest import FC, P3, fincof_elems, powerset_elems, rationals


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
        with pytest.raises(ValueError):
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
