import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balg import algebra, free_product, tensor
from balg.algebra import (POWERSET, Algebra, AlgebraError, Elem, Hom, check_homomorphism,
                          powerset, refine_partition, trivial_algebra)
from balg.free_product import FreeProduct
from conftest import (FC, P3, P4, fincof_elems, grid_elems, powerset_elems,
                      split_refine)


def atoms_of(x):
    """Independent reading of a powerset element as a set of atom indices."""
    return {i + 1 for i in range(x.alg.atom_count) if x.data >> i & 1}


class TestElem:
    def test_meet_is_intersection(self):
        assert P3.subset([1, 2]) & P3.subset([2, 3]) == P3.subset([2])

    def test_cofinite_meet_unions_exclusions(self):
        assert FC.cof([1]) & FC.cof([2]) == FC.cof([1, 2])

    def test_dsum_is_symmetric_difference(self):
        assert P3.subset([1, 2]) ^ P3.subset([2, 3]) == P3.subset([1, 3])

    def test_dsum_expands_per_definition(self):
        x, y = P3.subset([1, 2]), P3.subset([2, 3])
        assert x ^ y == (x & ~y) | (~x & y)

    def test_leq(self):
        assert P3.subset([1]).leq(P3.subset([1, 2]))
        assert not FC.cof([1]).leq(FC.fin([0, 2]))

    def test_zero_below_everything(self):
        rng = random.Random(0)
        for _ in range(100):
            assert P3.zero.leq(P3.random_elem(rng))
            assert FC.zero.leq(FC.random_elem(rng))

    def test_rel_complement(self):
        assert P3.subset([1, 2]).rel_complement(P3.subset([2, 3])) == P3.subset([1])
        rng = random.Random(1)
        for _ in range(50):
            x = FC.random_elem(rng)
            assert x.rel_complement(FC.zero) == x
            assert x.rel_complement(x) == FC.zero

    def test_cofinite_unique_encoding(self):
        assert FC.fin([]) == FC.zero
        assert FC.cof([]) == FC.one
        assert FC.fin([2, 1, 1]) == FC.fin([1, 2])

    def test_cross_algebra_mix_rejected(self):
        with pytest.raises(AlgebraError):
            P3.subset([1]) & powerset(2).subset([1])

    def test_contains(self):
        assert FC.cof([1]).contains(0) and not FC.cof([1]).contains(1)
        assert P3.subset([2]).contains(2) and not P3.subset([2]).contains(1)


class TestDescriptor:
    def test_atom_cap(self):
        with pytest.raises(AlgebraError):
            powerset(17)
        with pytest.raises(AlgebraError):
            powerset(0)

    def test_trivial_has_zero_equal_one(self):
        t = trivial_algebra()
        assert t.zero == t.one
        assert list(t.elements()) == [t.zero]
        # it is the powerset of no points, and draws nothing from a generator
        assert t == Algebra(POWERSET, 0) and t.is_trivial
        assert not any(a.is_trivial for a in (powerset(1), P3, FC))
        assert ~t.zero == t.one
        rng = random.Random(4)
        state = rng.getstate()
        assert t.random_elem(rng) == t.zero
        assert rng.getstate() == state

    def test_atoms(self):
        assert P3.atoms() == (P3.subset([1]), P3.subset([2]), P3.subset([3]))
        assert powerset(1).atoms() == (powerset(1).subset([1]),)

    def test_atoms_errors(self):
        with pytest.raises(AlgebraError):
            FC.atoms()
        t = trivial_algebra()
        for call in (t.atoms, lambda: t.subset([]), lambda: t.atom_mask(t.zero),
                     lambda: t.from_atom_mask(0)):
            with pytest.raises(AlgebraError):
                call()

    def test_name_does_not_affect_equality(self):
        assert powerset(3, "X") == powerset(3, "Y")
        assert powerset(3) != powerset(4)


class TestSup:
    def test_examples(self):
        assert P3.sup([P3.subset([1]), P3.subset([2])]) == P3.subset([1, 2])
        x = P3.subset([2, 3])
        assert P3.sup([x]) == x
        assert FC.sup([FC.fin([0]), FC.cof([0])]) == FC.one

    def test_empty_rejected(self):
        with pytest.raises(AlgebraError):
            P3.sup([])
        # so is a member of another algebra or a non-element, first or later
        fp = FreeProduct(P3, FC)
        for alg, xs in ((P3, [P4.one]), (P3, [P3.zero, P4.one]), (FC, [FC.one, P3.one]),
                        (fp, [fp.one, P3.one]), (fp, [FreeProduct(P4, FC).one]),
                        (P3, [3]), (FC, [FC.one, ("fin", ())]), (P3, [fp.one])):
            with pytest.raises(AlgebraError):
                alg.sup(xs)

    def test_least_upper_bound_exhaustive(self):
        rng = random.Random(2)
        for _ in range(100):
            xs = [P3.random_elem(rng) for _ in range(rng.randint(1, 4))]
            top = P3.sup(xs)
            assert all(v.leq(top) for v in xs)
            for b in P3.elements():
                if all(v.leq(b) for v in xs):
                    assert top.leq(b)


@given(powerset_elems(P3), powerset_elems(P3), powerset_elems(P3))
def test_powerset_boolean_axioms(x, y, z):
    assert (x & y) & z == x & (y & z)
    assert (x | y) | z == x | (y | z)
    assert x & y == y & x
    assert x | y == y | x
    assert x & (y | z) == (x & y) | (x & z)
    assert x | (y & z) == (x | y) & (x | z)
    assert x & (x | y) == x
    assert x | (x & y) == x
    assert (x & ~x) == P3.zero
    assert (x | ~x) == P3.one


@given(fincof_elems(), fincof_elems(), fincof_elems())
def test_fincof_boolean_axioms(x, y, z):
    assert (x & y) & z == x & (y & z)
    assert x & (y | z) == (x & y) | (x & z)
    assert x | (y & z) == (x | y) & (x | z)
    assert (x & ~x) == FC.zero
    assert (x | ~x) == FC.one
    assert ~(~x) == x


@given(fincof_elems(), fincof_elems(), fincof_elems())
def test_dsum_group_laws(x, y, z):
    assert (x ^ y) ^ z == x ^ (y ^ z)
    assert x ^ y == y ^ x
    assert x ^ FC.zero == x
    assert x ^ x == FC.zero


@given(fincof_elems(), fincof_elems())
def test_leq_agrees_with_join(x, y):
    assert x.leq(y) == ((x | y) == y)
    assert x.leq(y) == ((x & y) == x)


def test_powerset_ops_match_set_oracle():
    rng = random.Random(3)
    for _ in range(300):
        x, y = P3.random_elem(rng), P3.random_elem(rng)
        assert atoms_of(x & y) == atoms_of(x) & atoms_of(y)
        assert atoms_of(x | y) == atoms_of(x) | atoms_of(y)
        assert atoms_of(x ^ y) == atoms_of(x) ^ atoms_of(y)
        assert atoms_of(~x) == {1, 2, 3} - atoms_of(x)


def test_axioms_at_volume():
    # 1000 seeded triples per backend: lattice axioms, disjoint-sum group
    # laws, and the order characterizations
    rng = random.Random(99)
    for alg in (P3, FC):
        for _ in range(1000):
            x, y, z = (alg.random_elem(rng) for _ in range(3))
            assert (x & y) & z == x & (y & z)
            assert x & (y | z) == (x & y) | (x & z)
            assert x | (y & z) == (x | y) & (x | z)
            assert x & (x | y) == x and x | (x & y) == x
            assert (x & ~x) == alg.zero and (x | ~x) == alg.one
            assert (x ^ y) ^ z == x ^ (y ^ z)
            assert x ^ y == y ^ x and x ^ x == alg.zero and x ^ alg.zero == x
            assert x.leq(y) == ((x | y) == y)
            assert not (x.leq(y) and y.leq(x)) or x == y
            assert not (x.leq(y) and y.leq(z)) or x.leq(z)


def test_expression_oracle_at_volume():
    # 1000 random expression trees over a powerset backend, evaluated both
    # through the element operations and through plain python sets
    from balg.suites import _random_expr_tree, _eval_tree_elem

    def eval_sets(node, universe):
        tag = node[0]
        if tag == "const":
            return atoms_of(node[1])
        if tag == "not":
            return universe - eval_sets(node[1], universe)
        a = eval_sets(node[1], universe)
        b = eval_sets(node[2], universe)
        return a & b if tag == "and" else a | b if tag == "or" else a ^ b

    rng = random.Random(98)
    p4 = powerset(4)
    universe = {1, 2, 3, 4}
    for _ in range(1000):
        tree = _random_expr_tree(p4, rng, 4)
        assert atoms_of(_eval_tree_elem(tree)) == eval_sets(tree, universe)


def test_refine_partition_is_partition():
    rng = random.Random(4)
    for alg in (P3, FC):
        for _ in range(100):
            parts = [alg.random_elem(rng) for _ in range(rng.randint(0, 4))]
            cells = refine_partition(alg.one, parts)
            assert alg.sup(cells) == alg.one
            for i in range(len(cells)):
                assert not cells[i].is_zero()
                for j in range(i + 1, len(cells)):
                    assert (cells[i] & cells[j]).is_zero()
            for p in parts:
                for c in cells:
                    below = c.leq(p)
                    disjoint = (c & p).is_zero()
                    assert below != disjoint or (below and not disjoint)


REFINE_AXES = {
    "P3": (P3, powerset_elems(P3)),
    "P4": (P4, powerset_elems(P4)),
    "FC": (FC, fincof_elems()),
    "trivial": (trivial_algebra(), st.just(trivial_algebra().zero)),
}


@pytest.mark.parametrize("name", sorted(REFINE_AXES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_refine_partition_matches_split_reference(name, data):
    """The kernel route equals splitting the unit part by part, for 0-5
    parts with repeats, zero and one among them."""
    alg, elems = REFINE_AXES[name]
    pool = data.draw(st.lists(st.one_of(elems, st.sampled_from((alg.zero, alg.one))),
                              min_size=1, max_size=5))
    parts = data.draw(st.lists(st.sampled_from(pool), max_size=5))
    assert refine_partition(alg.one, parts) == split_refine(alg.one, parts)


P2 = powerset(2)
FCxFC = FreeProduct(FC, FC)
P2xFC = FreeProduct(P2, FC)
JOIN_BACKENDS = {
    "P3": (P3, powerset_elems(P3)),
    "P4": (P4, powerset_elems(P4)),
    "trivial": (trivial_algebra(), st.just(trivial_algebra().zero)),
    "FC": (FC, fincof_elems()),
    "FCxFC": (FCxFC, grid_elems(FCxFC, fincof_elems(), fincof_elems())),
    "P2xFC": (P2xFC, grid_elems(P2xFC, powerset_elems(P2), fincof_elems())),
}


def de_morgan_join(alg, xs):
    """Reference join from meets and complements only: ~(~x1 & ... & ~xk)."""
    meet = alg.one
    for x in xs:
        meet = meet & ~x
    return ~meet


@pytest.mark.parametrize("name", sorted(JOIN_BACKENDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_join_matches_de_morgan_oracle(name, data):
    """Each backend's one n-ary join, for families of 0-5 members."""
    alg, elems = JOIN_BACKENDS[name]
    xs = data.draw(st.lists(elems, max_size=5))
    assert alg.join(xs) == de_morgan_join(alg, xs)


P11 = powerset(11)
# fincof elements whose supports lie below 10
windowed = st.tuples(st.sampled_from(("fin", "cof")),
                     st.frozensets(st.integers(0, 9), max_size=6)).map(
    lambda t: Elem(FC, (t[0], tuple(sorted(t[1])))))


def window(x):
    """The image in P(11) of a fincof element with support below 10: the
    natural n is atom n + 1, and atom 11 stands for every natural from 10 on."""
    mode, support = x.data
    below = P11.subset(n + 1 for n in support)
    return below if mode == "fin" else ~below


@given(windowed, windowed, st.lists(windowed, max_size=5))
def test_fincof_agrees_with_powerset_on_a_window(x, y, xs):
    """Differential check of the two backends: the window map is an
    isomorphism, so every operation commutes with it."""
    assert window(x & y) == window(x) & window(y)
    assert window(x | y) == window(x) | window(y)
    assert window(x ^ y) == window(x) ^ window(y)
    assert window(~x) == ~window(x)
    assert x.leq(y) == window(x).leq(window(y))
    assert window(FC.join(xs)) == P11.join([window(v) for v in xs])


def test_refine_partition_bound_where_the_tracer_patches_it():
    """perfbench/tracing.py patches ``refine_partition`` by name in
    free_product and tensor, which no longer call it themselves."""
    assert free_product.refine_partition is algebra.refine_partition
    assert tensor.refine_partition is algebra.refine_partition


class TestHomomorphisms:
    def test_identity_passes(self):
        p2 = powerset(2)
        verdict = check_homomorphism(Hom.identity(p2), exhaustive=True)
        assert verdict.ok and verdict.pairs_checked == 16
        verdict = check_homomorphism(Hom.identity(trivial_algebra()), exhaustive=True)
        assert verdict.ok and verdict.pairs_checked == 1
        with pytest.raises(AlgebraError):
            Hom.identity(FC)

    def test_constant_to_one_fails_disjoint_sum(self):
        p2 = powerset(2)
        broken = Hom.from_table(p2, p2, {x: p2.one for x in p2.elements()})
        verdict = check_homomorphism(broken, exhaustive=True)
        assert not verdict.ok
        assert verdict.axiom == "disjoint-sum"
        x, y = verdict.witness
        assert verdict.lhs == p2.one and verdict.rhs == (broken(x) ^ broken(y))

    def test_atom_map_collapse_exhaustive(self):
        # both atoms of the target read source atom 1
        p2, p1 = powerset(2), powerset(1)
        h = Hom.from_atom_map(p2, p1, [1])
        verdict = check_homomorphism(h, exhaustive=True)
        assert verdict.ok and verdict.pairs_checked == 16
        assert h(p2.subset([1])) == p1.one
        assert h(p2.subset([2])) == p1.zero

    def test_atom_maps_always_homomorphisms(self):
        rng = random.Random(5)
        for _ in range(20):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            src, dst = powerset(n), powerset(m)
            h = Hom.from_atom_map(src, dst, [rng.randint(1, n) for _ in range(m)])
            assert check_homomorphism(h, exhaustive=True).ok

    def test_passing_check_preserves_joins(self):
        # join preservation is asserted on the same pairs as the axioms
        p3 = powerset(3)
        h = Hom.from_atom_map(p3, p3, [2, 2, 3])
        verdict = check_homomorphism(h, exhaustive=True)
        assert verdict.ok
        for x in p3.elements():
            for y in p3.elements():
                assert h(x | y) == (h(x) | h(y))

    def test_generator_images_extend_over_subalgebra(self):
        h = Hom.from_generator_images(FC, FC, [(FC.fin([0]), FC.fin([0]))])
        assert h(FC.fin([0])) == FC.fin([0])
        assert h(FC.cof([0])) == FC.cof([0])
        assert h(FC.one) == FC.one
        assert check_homomorphism(h, trials=100, rng=random.Random(0)).ok

    def test_generator_images_domain_guard(self):
        from balg.algebra import HomDomainError
        h = Hom.from_generator_images(FC, FC, [(FC.fin([0]), FC.fin([0]))])
        with pytest.raises(HomDomainError):
            h(FC.fin([5]))

    def test_exhaustive_cap(self):
        p13 = powerset(13)
        with pytest.raises(AlgebraError):
            check_homomorphism(Hom.identity(p13), exhaustive=True)
