import random
from fractions import Fraction

import pytest

from balg.algebra import AlgebraError, powerset, trivial_algebra
from balg.free_product import FreeProduct
from balg import places, tensor
from conftest import FC, INEXACT, ones, vector

A = powerset(2, "A")
B = powerset(2, "B")
P3 = powerset(3)


class TestAtomModel:
    def test_examples(self):
        f = places.scale(2, places.chi(P3.subset([1, 2])))
        assert tensor.to_atom_model(f).values == (Fraction(2), Fraction(2), Fraction(0))
        assert tensor.to_atom_model(places.zero(P3)).values == (0, 0, 0)
        assert tensor.to_atom_model(places.unit(P3)).values == (1, 1, 1)

    def test_trivial_round_trip(self):
        # P(0) has no atoms: its one place function is the empty vector
        t = trivial_algebra()
        empty = tensor.AtomVector((), ())
        assert tensor.to_atom_model(places.zero(t)) == empty
        assert tensor.from_atom_model(t, empty) == places.zero(t)

    @pytest.mark.parametrize("fp", [FreeProduct(trivial_algebra(), powerset(2)),
                                    FreeProduct(powerset(2), trivial_algebra())],
                             ids=["P0 x P2", "P2 x P0"])
    def test_trivial_factor_round_trip(self, fp):
        # a product with a trivial factor has one element, so one place function
        empty = tensor.AtomVector((), ())
        assert tensor.to_atom_model(places.zero(fp)) == empty
        assert tensor.from_atom_model(fp, empty) == places.zero(fp)

    @pytest.mark.parametrize("fp", [FreeProduct(FC, powerset(2)), FreeProduct(powerset(2), FC),
                                    FreeProduct(trivial_algebra(), FC)],
                             ids=["FC x P2", "P2 x FC", "P0 x FC"])
    def test_fincof_factor_has_no_model(self, fp):
        with pytest.raises(AlgebraError):
            tensor.to_atom_model(places.zero(fp))

    def test_bijective(self):
        rng = random.Random(0)
        for backend in (P3, FreeProduct(A, B)):
            for _ in range(200):
                f = places.random_place(backend, rng)
                v = tensor.to_atom_model(f)
                assert tensor.from_atom_model(backend, v) == f
        space = tensor.atom_space(P3)
        for _ in range(200):
            v = tensor.random_vector(space, rng)
            assert tensor.to_atom_model(tensor.from_atom_model(P3, v)) == v

    def test_mismatches_are_algebra_errors(self):
        space = tensor.atom_space(P3)
        with pytest.raises(AlgebraError, match="different spaces"):
            ones(space) + ones((1, 2))
        with pytest.raises(AlgebraError, match="backend's atoms"):
            tensor.from_atom_model(P3, ones((1, 2)))

    @pytest.mark.parametrize("c", list(INEXACT.values()), ids=list(INEXACT))
    def test_inexact_coordinate_refused(self, c):
        with pytest.raises(AlgebraError):
            tensor.from_atom_model(P3, tensor.AtomVector((1, 2, 3), (Fraction(1), c, 0)))

    @pytest.mark.parametrize("c", list(INEXACT.values()), ids=list(INEXACT))
    def test_inexact_vector_values_refused(self, c):
        """A vector takes exact coordinates and scales by exact factors only."""
        x = tensor.AtomVector((1, 2), (Fraction(1), Fraction(2)))
        with pytest.raises(AlgebraError, match="coefficient"):
            x.scale(c)
        with pytest.raises(AlgebraError, match="coefficient"):
            tensor.AtomVector((1, 2), (1, c))

    def test_half_as_a_float_refused(self):
        with pytest.raises(AlgebraError, match="coefficient"):
            tensor.AtomVector((1,), (0.5,))
        x = tensor.AtomVector((1,), (Fraction(1, 2),))
        assert x.scale(2) == tensor.AtomVector((1,), (1,))

    def test_coordinatewise_structure(self):
        rng = random.Random(1)
        for _ in range(200):
            f = places.random_place(P3, rng)
            g = places.random_place(P3, rng)
            assert tensor.to_atom_model(f + g) == \
                tensor.to_atom_model(f) + tensor.to_atom_model(g)
            assert tensor.to_atom_model(places.meet(f, g)) == \
                tensor.to_atom_model(f).meet(tensor.to_atom_model(g))


class TestPureTensor:
    def test_products(self):
        e = vector((1, 2), [2, 3])
        f = vector((1, 2), [5, 7])
        assert tensor.pure_tensor(e, f).values == (10, 14, 15, 21)

    def test_indicator(self):
        e = vector((1, 2), [1, 0])
        f = vector((1, 2), [0, 1])
        got = tensor.pure_tensor(e, f)
        assert got == tensor.indicator(got.space, (1, 2))

    def test_units(self):
        sp = (1, 2, 3)
        assert tensor.pure_tensor(ones(sp), ones(sp)) == \
            ones(tensor.pure_tensor(ones(sp), ones(sp)).space)

    def test_is_bimorphism(self):
        E = tensor.VectorSpace((1, 2))
        F = tensor.VectorSpace((1, 2, 3))
        verdict = tensor.verify_bimorphism(tensor.pure_tensor, E, F,
                                           trials=150, rng=random.Random(2))
        assert verdict.ok


class TestPsi:
    def test_rectangle_example(self):
        fp = FreeProduct(A, B)
        got = tensor.psi(fp, places.chi(A.subset([1])), places.chi(B.subset([1])))
        assert got == places.chi(fp.rect(A.subset([1]), B.subset([1])))

    def test_units(self):
        fp = FreeProduct(A, B)
        assert tensor.psi(fp, places.unit(A), places.unit(B)) == places.unit(fp)

    def test_scaled(self):
        fp = FreeProduct(A, B)
        got = tensor.psi(fp, places.scale(2, places.chi(A.subset([1]))),
                         places.scale(3, places.chi(B.subset([1]))))
        assert got.terms == ((Fraction(6), fp.rect(A.subset([1]), B.subset([1]))),)

    def test_foreign_terms_rejected(self):
        """psi_terms raises on a term from a backend other than its factor,
        zero supports and zero coefficients included."""
        fp = FreeProduct(powerset(2), P3)
        P5 = powerset(5)
        for f_terms, g_terms in [([(1, P5.subset([1]))], [(1, P3.one)]),
                                 ([(1, FC.fin([0]))], [(1, P3.one)]),
                                 ([(1, powerset(2).one)], [(1, FC.cof([]))]),
                                 ([(1, P5.zero)], [(1, P3.one)]),
                                 ([(1, powerset(2).one)], [(0, P5.one)])]:
            with pytest.raises(AlgebraError):
                tensor.psi_terms(fp, f_terms, g_terms)

    @pytest.mark.parametrize("c", list(INEXACT.values()), ids=list(INEXACT))
    def test_inexact_coefficients_refused(self, c):
        """Either side, under a zero support too."""
        fp = FreeProduct(A, P3)
        for f_terms, g_terms in [([(c, A.one)], [(1, P3.one)]),
                                 ([(1, A.one)], [(c, P3.subset([2]))]),
                                 ([(c, A.zero)], [(1, P3.one)])]:
            with pytest.raises(AlgebraError):
                tensor.psi_terms(fp, f_terms, g_terms)

    def test_routes_agree(self):
        rng = random.Random(3)
        for fp in (FreeProduct(P3, B), FreeProduct(FC, FC)):
            for _ in range(200):
                f = places.random_place(fp.left, rng)
                g = places.random_place(fp.right, rng)
                assert tensor.psi(fp, f, g) == \
                    tensor.psi_terms_by_rectangles(fp, f.terms, g.terms)

    def test_representation_independence(self):
        rng = random.Random(4)
        for fp in (FreeProduct(P3, B), FreeProduct(FC, FC)):
            for _ in range(200):
                f = places.random_place(fp.left, rng)
                g = places.random_place(fp.right, rng)
                base = tensor.psi(fp, f, g)
                assert tensor.psi_terms(fp, tensor.split_representation(f, rng),
                                        g.terms) == base
                assert tensor.psi_terms(fp, f.terms,
                                        tensor.split_representation(g, rng)) == base

    def test_bimorphism_over_powersets(self):
        fp = FreeProduct(A, B)
        verdict = tensor.verify_bimorphism(
            lambda f, g: tensor.psi(fp, f, g),
            tensor.PlaceSpace(A), tensor.PlaceSpace(B),
            trials=100, rng=random.Random(5))
        assert verdict.ok

    def test_bimorphism_over_fincof(self):
        fp = FreeProduct(FC, FC)
        verdict = tensor.verify_bimorphism(
            lambda f, g: tensor.psi(fp, f, g),
            tensor.PlaceSpace(FC), tensor.PlaceSpace(FC),
            trials=100, rng=random.Random(6))
        assert verdict.ok

    def test_broken_map_rejected_with_counterexample(self):
        fp = FreeProduct(A, B)
        g0 = places.chi(B.subset([1]))

        def broken(f, g):
            return places.add_refine(tensor.psi(fp, f, g), tensor.psi(fp, f, g0))

        verdict = tensor.verify_bimorphism(
            broken, tensor.PlaceSpace(A), tensor.PlaceSpace(B),
            trials=100, rng=random.Random(7))
        assert not verdict.ok
        assert verdict.law in ("additive-right", "scalar-interchange",
                               "disjointness-right")
        assert verdict.witness


class TestTensorMap:
    def test_basis_images(self):
        t = tensor.TensorMap(A, B)
        got = t.apply(tensor.indicator(t.space, (1, 1)))
        assert got == places.chi(t.fp.rect(A.subset([1]), B.subset([1])))
        assert t.apply(ones(t.space)) == places.unit(t.fp)

    def test_pure_tensor_route(self):
        t = tensor.TensorMap(A, B)
        v = tensor.pure_tensor(vector((1, 2), [1, 0]),
                               vector((1, 2), [0, 1]))
        assert t.apply(v) == places.chi(t.fp.rect(A.subset([1]), B.subset([2])))

    def test_riesz_laws(self):
        rng = random.Random(8)
        t = tensor.TensorMap(powerset(2), powerset(3))
        for _ in range(1000):
            v = tensor.random_vector(t.space, rng)
            w = tensor.random_vector(t.space, rng)
            lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            assert t.apply(v + w) == t.apply(v) + t.apply(w)
            assert t.apply(v.scale(lam)) == places.scale(lam, t.apply(v))
            assert t.apply(v.abs()) == places.abs_(t.apply(v))
            assert t.apply(v.join(w)) == places.join(t.apply(v), t.apply(w))

    def test_triangle_commutes(self):
        rng = random.Random(9)
        for n, m in ((2, 2), (2, 3), (3, 3)):
            a, b = powerset(n), powerset(m)
            t = tensor.TensorMap(a, b)
            for _ in range(100):
                va = tensor.random_vector(tensor.atom_space(a), rng)
                vb = tensor.random_vector(tensor.atom_space(b), rng)
                lhs = t.apply(tensor.pure_tensor(va, vb))
                rhs = tensor.psi(t.fp, tensor.from_atom_model(a, va),
                                 tensor.from_atom_model(b, vb))
                assert lhs == rhs

    def test_rank_example(self):
        assert tensor.TensorMap(powerset(3), powerset(4)).as_matrix().rank() == 12

    def test_onto_and_injective(self):
        for n, m in ((1, 1), (2, 2), (2, 3)):
            verdict = tensor.verify_T_onto_and_injective(
                powerset(n), powerset(m), rng=random.Random(10))
            assert verdict.ok and verdict.rank == n * m
            for h, v in verdict.witnesses:
                assert tensor.TensorMap(powerset(n), powerset(m)).apply(v) == h

    def test_onto_preimage_of_complement_rectangle(self):
        t = tensor.TensorMap(A, B)
        h = places.chi(~t.fp.rect(A.subset([1]), B.subset([1])))
        v = t.preimage(h)
        assert t.apply(v) == h


def test_build_T_requires_enumerable_atoms():
    from balg.algebra import AlgebraError

    with pytest.raises(AlgebraError):
        tensor.TensorMap(FC, FC)
    with pytest.raises(AlgebraError):
        tensor.TensorMap(powerset(2), FC)
    # nor has an atom model, not even for its zero function
    for f in (places.zero(FC), places.unit(FC), places.zero(FreeProduct(FC, FC))):
        with pytest.raises(AlgebraError):
            tensor.to_atom_model(f)


class TestRank:
    def test_rational_rank(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert tensor.rational_rank(rows) == 1
        rows = [[Fraction(1, 2), Fraction(0)], [Fraction(1), Fraction(1, 3)]]
        assert tensor.rational_rank(rows) == 2
        assert tensor.rational_rank([[Fraction(0)]]) == 0

    def test_rank_against_permutations(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 5)
            perm = list(range(n))
            rng.shuffle(perm)
            rows = [[Fraction(1 if perm[i] == j else 0) for j in range(n)]
                    for i in range(n)]
            assert tensor.rational_rank(rows) == n


class TestLinearLatticeMap:
    def test_riesz_shape(self):
        ok = tensor.LinearLatticeMap((1, 2), (1, 2), (
            (Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))))
        assert ok.riesz_shape()
        # the diagonal embedding reads one source atom into two target atoms
        # and is a lattice map; a summing row is not
        diag = tensor.LinearLatticeMap((1,), (1, 2), (
            (Fraction(1),), (Fraction(1),)))
        assert diag.riesz_shape()
        assert diag.preserves_abs(random.Random(12))
        summing = tensor.LinearLatticeMap((1, 2), (1,), (
            (Fraction(1), Fraction(1)),))
        assert not summing.riesz_shape()
        assert not summing.preserves_abs(random.Random(13))
        negative = tensor.LinearLatticeMap((1,), (1,), ((Fraction(-1),),))
        assert not negative.riesz_shape()
        assert not negative.preserves_abs(random.Random(14))

    def test_source_mismatch_is_an_algebra_error(self):
        m = tensor.LinearLatticeMap((1, 2), (1,), ((Fraction(1), Fraction(1)),))
        with pytest.raises(AlgebraError, match="source"):
            m.apply(ones((1, 2, 3)))

    def test_shape_matches_abs_preservation(self):
        rng = random.Random(15)
        for _ in range(100):
            rows = tuple(tuple(Fraction(rng.randint(-2, 2))
                               for _ in range(3)) for _ in range(3))
            m = tensor.LinearLatticeMap((1, 2, 3), (1, 2, 3), rows)
            assert m.riesz_shape() == m.preserves_abs(rng)

    def test_apply_matches_dense_sum(self):
        rng = random.Random(17)
        for _ in range(300):
            n, m = rng.randint(0, 5), rng.randint(1, 5)
            rows = tuple(tuple(Fraction(rng.choice((0, 0, rng.randint(-3, 3))), rng.randint(1, 3))
                               for _ in range(n)) for _ in range(m))
            v = tensor.random_vector(range(n), rng)
            dense = tuple(sum((row[j] * v.values[j] for j in range(n)), Fraction(0))
                          for row in rows)
            out = tensor.LinearLatticeMap(tuple(range(n)), tuple(range(m)), rows).apply(v)
            assert out.space == tuple(range(m)) and out.values == dense
            assert all(type(a) is Fraction for a in out.values)


class TestUniversalProperty:
    def test_pure_tensor_induces_identity(self):
        pair = tensor.pair_space(A, B)
        check = tensor.verify_universal_property(
            A, B, tensor.pure_tensor, pair, trials=60, rng=random.Random(16))
        assert check.ok
        assert all(check.induced.matrix[i][j] == (1 if i == j else 0)
                   for i in range(4) for j in range(4))

    def test_psi_through_model_matches_tensor_map(self):
        fp = FreeProduct(A, B)
        pair = tensor.pair_space(A, B)

        def through(v, w):
            return tensor.to_atom_model(tensor.psi(
                fp, tensor.from_atom_model(A, v), tensor.from_atom_model(B, w)))

        check = tensor.verify_universal_property(A, B, through, pair,
                                                 trials=60, rng=random.Random(17))
        assert check.ok
        assert check.induced.matrix == tensor.TensorMap(A, B).as_matrix().matrix

    def test_permuted_bimorphism_induces_permutation(self):
        fp = FreeProduct(A, B)
        pair = tensor.pair_space(A, B)
        perm = [2, 3, 0, 1]

        def permuted(v, w):
            base = tensor.to_atom_model(tensor.psi(
                fp, tensor.from_atom_model(A, v), tensor.from_atom_model(B, w)))
            vals = [Fraction(0)] * len(pair)
            for i, val in enumerate(base.values):
                vals[perm[i]] = val
            return tensor.AtomVector(pair, tuple(vals))

        check = tensor.verify_universal_property(A, B, permuted, pair,
                                                 trials=60, rng=random.Random(18))
        assert check.ok
        for i in range(4):
            row = check.induced.matrix[perm[i]]
            assert row[i] == 1 and sum(1 for x in row if x != 0) == 1

    def test_collapsed_pure_tensor_fails_the_basis_check(self, monkeypatch):
        """A pure tensor that sends the indicator pairs (1, 1) and (1, 2) to
        one coordinate still reproduces itself on every sample, but its
        indicator pure tensors are rank deficient."""
        pair = tensor.pair_space(A, B)
        real = tensor.pure_tensor

        def collapsed(e, f):
            out = real(e, f)
            vals = (out.values[0] + out.values[1], Fraction(0)) + out.values[2:]
            return tensor.AtomVector(out.space, vals)

        monkeypatch.setattr(tensor, "pure_tensor", collapsed)
        check = tensor.verify_universal_property(A, B, collapsed, pair,
                                                 trials=60, rng=random.Random(16))
        assert not check.ok
        assert check.detail == "indicator pure tensors are not a basis"
