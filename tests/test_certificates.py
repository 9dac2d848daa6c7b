import random
from fractions import Fraction
from functools import reduce
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balg.algebra import AlgebraError, powerset, trivial_algebra
from balg.free_product import FreeProduct, Rectangle
from balg import certificates as certs
from balg.tensor import AtomVector
from balg.validation import _diagonal_upper_bound, _evens_upper_bound, validate_certificate
from conftest import FC


class TestFiniteCompleteness:
    def test_subset_counts(self):
        assert certs.check_finite_completeness(powerset(2)).subsets_checked == 15
        assert certs.check_finite_completeness(powerset(1)).subsets_checked == 3
        assert certs.check_finite_completeness(trivial_algebra()).subsets_checked == 1

    def test_cap(self):
        with pytest.raises(AlgebraError):
            certs.check_finite_completeness(powerset(5))
        with pytest.raises(AlgebraError):
            certs.check_finite_completeness(FC)
        for dim in (-1, -5, 10):
            with pytest.raises(AlgebraError):
                certs.check_model_dedekind_complete(dim, random.Random(0))

    def test_model_bounded_sups(self):
        rng = random.Random(0)
        verdicts = [certs.check_model_dedekind_complete(dim, rng) for dim in range(10)]
        assert all(v["ok"] and v["dimension"] == dim for dim, v in enumerate(verdicts))
        # every nonempty subset of the base family, then 100 random families
        assert [v["families_checked"] for v in verdicts] == [
            101, 103, 115, 355, 131, 163, 227, 355, 611, 1123]

    def test_model_check_does_no_vector_lattice_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an AtomVector lattice operation in the model check")
        monkeypatch.setattr(AtomVector, "join", refuse)
        monkeypatch.setattr(AtomVector, "leq", refuse)
        assert certs.check_model_dedekind_complete(9, random.Random(0)) == {
            "ok": True, "dimension": 9, "families_checked": 1123}


def sequential_subset_without_supremum(upset):
    """The subset walk before it went bit-parallel, kept as the oracle: each
    nonempty subset s in increasing order takes its join and its upper-bound
    set from s minus its lowest member, and the first s whose join is not an
    upper bound, or is not below every upper bound, is returned."""
    count = len(upset)
    nsets = 1 << count
    joins = [0] * nsets
    ubs = [(1 << count) - 1] * nsets
    for s in range(1, nsets):
        low = s & -s
        i = low.bit_length() - 1
        rest = s ^ low
        joins[s] = joins[rest] | i
        ubs[s] = ubs[rest] & upset[i]
        j = joins[s]
        if j >= count or not ubs[s] >> j & 1 or ubs[s] & ~upset[j]:
            return s
    return None


def bitmask_order(count):
    """x <= b iff the bitmask x lies inside the bitmask b."""
    return [sum(1 << b for b in range(count) if x & b == x) for x in range(count)]


class TestSubsetWalk:
    @pytest.mark.parametrize("count", [1, 2, 4, 8, 16])
    def test_powersets_are_complete(self, count):
        assert certs.subset_without_supremum(count) is None

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 5, 6, 8, 9])
    def test_matches_sequential_walk_on_the_bitmask_order(self, count):
        # below a power of two some joins are no element, so the walk fails
        assert (certs.first_subset_without_supremum(bitmask_order(count))
                == sequential_subset_without_supremum(bitmask_order(count)))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_sequential_walk_on_planted_orders(self, data):
        count = data.draw(st.sampled_from([2, 3, 4, 5, 8]))
        upset = bitmask_order(count)
        for _ in range(data.draw(st.integers(1, 3))):
            x, b = data.draw(st.integers(0, count - 1)), data.draw(st.integers(0, count - 1))
            upset[x] ^= 1 << b
        assert (certs.first_subset_without_supremum(upset)
                == sequential_subset_without_supremum(upset))

    def test_planted_orders_at_sixteen_elements(self):
        rng = random.Random(0)
        found = 0
        for _ in range(12):
            upset = bitmask_order(16)
            x, b = rng.randrange(16), rng.randrange(16)
            upset[x] ^= 1 << b
            bad = certs.first_subset_without_supremum(upset)
            assert bad == sequential_subset_without_supremum(upset)
            found += bad is not None
        assert found > 0


def fraction_least_upper_bound_ok(family, sup=None):
    """The model check's Fraction body before it moved to integer rows, kept
    as the oracle: ``sup`` (by default the join of the family) bounds every
    member and each of its coordinates is attained by one."""
    if sup is None:
        sup = family[0]
        for v in family[1:]:
            sup = sup.join(v)
    if not all(v.leq(sup) for v in family):
        return False
    for i in range(len(sup.values)):
        if not any(v.values[i] == sup.values[i] for v in family):
            return False
    return True


def model_families():
    """Families of 1-6 vectors at dimensions 0-9, mixed signs, denominators 1-7."""
    coord = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
    return st.integers(0, 9).flatmap(lambda dim: st.lists(
        st.lists(coord, min_size=dim, max_size=dim).map(
            lambda vals: AtomVector(tuple(range(1, dim + 1)), tuple(vals))),
        min_size=1, max_size=6))


class TestIntegerSuprema:
    @settings(max_examples=300, deadline=None)
    @given(family=model_families(), data=st.data())
    def test_matches_fraction_body(self, family, data):
        space = family[0].space
        scale = lcm(*(a.denominator for v in family for a in v.values))
        rows = certs._integer_rows(family)
        assert rows == [tuple(a * scale for a in v.values) for v in family]
        assert all(type(a) is int for row in rows for a in row)
        candidate = tuple(map(max, zip(*rows)))
        assert AtomVector(space, tuple(Fraction(c, scale) for c in candidate)) == \
            reduce(AtomVector.join, family)
        assert certs._is_least_upper_bound(rows, candidate)
        assert fraction_least_upper_bound_ok(family)
        # a moved candidate gets the same verdict from both bodies
        if space:
            i = data.draw(st.integers(0, len(space) - 1))
            moved = list(candidate)
            moved[i] += data.draw(st.integers(-3, 3))
            sup = AtomVector(space, tuple(Fraction(c, scale) for c in moved))
            assert certs._is_least_upper_bound(rows, tuple(moved)) == \
                fraction_least_upper_bound_ok(family, sup)

    def test_rejects_a_candidate_below_a_member(self):
        rows = [(1, -2, 0), (0, 3, -1)]
        assert certs._is_least_upper_bound(rows, (1, 3, 0))
        assert not certs._is_least_upper_bound(rows, (0, 3, 0))
        assert not certs._is_least_upper_bound(rows, (1, 3, -1))

    def test_rejects_a_raised_upper_bound(self):
        rows = [(1, -2, 0), (0, 3, -1)]
        top = (1, 3, 0)
        for i in range(3):
            raised = top[:i] + (top[i] + 1,) + top[i + 1:]
            assert not certs._is_least_upper_bound(rows, raised)

    def test_empty_family(self):
        # nothing attains a coordinate, so only the zero-dimensional model
        # has a least upper bound of no rows
        assert not certs._is_least_upper_bound([], (0,))
        assert certs._is_least_upper_bound([], ())


class TestEvensRefuter:
    def test_unit_start(self):
        step = certs.improve_upper_bound_evens(FC.one)
        assert step.defect == 1
        assert step.improved == FC.cof([1])

    def test_finite_set_rejected(self):
        outcome = certs.improve_upper_bound_evens(FC.fin([0, 2, 4]))
        assert isinstance(outcome, certs.NotUpperBound)
        assert outcome.witness == 6

    def test_excluded_even_rejected(self):
        outcome = certs.improve_upper_bound_evens(FC.cof([0]))
        assert isinstance(outcome, certs.NotUpperBound)
        assert outcome.witness == 0

    def test_step_properties(self):
        rng = random.Random(1)
        for _ in range(100):
            odds = sorted(rng.sample(range(1, 20, 2), rng.randint(0, 5)))
            u = FC.cof(odds)
            step = certs.improve_upper_bound_evens(u)
            assert isinstance(step, certs.RefuteStep)
            assert step.improved.leq(u) and step.improved != u
            # still dominates every even singleton
            assert all(FC.fin([e]).leq(step.improved) for e in range(0, 30, 2))

    def test_chain(self):
        cert = certs.no_supremum_certificate(certs.EVENS_FAMILY, FC.one, steps=5)
        assert isinstance(cert, certs.Certificate)
        assert [s.defect for s in cert.steps] == [1, 3, 5, 7, 9]
        chain = [cert.steps[0].upper_bound] + [s.improved for s in cert.steps]
        for prev, cur in zip(chain, chain[1:]):
            assert cur.leq(prev) and cur != prev


class TestDiagonalRefuter:
    def setup_method(self):
        self.fp = FreeProduct(FC, FC)

    def test_unit_start(self):
        step = certs.improve_upper_bound_diagonal(self.fp.one)
        assert step.defect == (0, 1)
        assert step.improved == ~self.fp.rect(FC.fin([0]), FC.fin([1]))

    def test_finite_rectangle_rejected(self):
        u = self.fp.rect(FC.fin([0, 1]), FC.fin([0, 1]))
        outcome = certs.improve_upper_bound_diagonal(u)
        assert isinstance(outcome, certs.NotUpperBound)
        assert outcome.witness == (2, 2)

    def test_missing_exceptional_point_rejected(self):
        u = ~self.fp.rect(FC.fin([3]), FC.fin([3]))
        outcome = certs.improve_upper_bound_diagonal(u)
        assert isinstance(outcome, certs.NotUpperBound)
        assert outcome.witness == (3, 3)

    def test_chain_of_five(self):
        cert = certs.no_supremum_certificate(certs.DIAGONAL_FAMILY, self.fp.one,
                                             steps=5)
        assert isinstance(cert, certs.Certificate)
        assert len(cert.steps) == 5
        chain = [cert.steps[0].upper_bound] + [s.improved for s in cert.steps]
        for prev, cur in zip(chain, chain[1:]):
            assert cur.leq(prev) and cur != prev
        diagonal = [self.fp.rect(FC.fin([n]), FC.fin([n])) for n in range(8)]
        for u in chain:
            assert all(d.leq(u) for d in diagonal)

    def test_steps_keep_diagonal(self):
        rng = random.Random(2)
        u = self.fp.one
        for _ in range(6):
            step = certs.improve_upper_bound_diagonal(u)
            assert isinstance(step, certs.RefuteStep)
            m, m2 = step.defect
            assert m != m2
            assert self.fp.contains_point(u, m, m2)
            assert not self.fp.contains_point(step.improved, m, m2)
            u = step.improved


def sweep_diagonal_step(u):
    """Reference refuter step: test (n, n) with ``contains_point`` for every
    n up to one past the largest natural the cof cells leave out."""
    fp = u.fp
    left_out = next(c for c in u.left_cells if c.data[0] == "cof").data[1]
    right_out = next(c for c in u.right_cells if c.data[0] == "cof").data[1]
    horizon = max(set(left_out) | set(right_out), default=-1) + 1
    for n in range(horizon + 1):
        if not fp.contains_point(u, n, n):
            return certs.NotUpperBound((n, n))
    m = 0
    while m in left_out:
        m += 1
    m2 = 0
    while m2 in right_out or m2 == m:
        m2 += 1
    return certs.RefuteStep(u, (m, m2), u & ~fp.rect(FC.fin([m]), FC.fin([m2])))


def random_diagonal_grid(fp, rng):
    """The unit with a few rectangles cut out and maybe one put back, over
    supports below 8 or below 300.  Cutting fin S x fin T with S, T disjoint
    keeps every diagonal point, so about two grids in five are upper bounds."""
    def support():
        return rng.sample(range(rng.choice((8, 300))), rng.randint(1, 6))

    u = fp.one
    for _ in range(rng.randint(1, 4)):
        s = support()
        t = [n for n in support() if n not in s] or [300]
        left = FC.fin(s) if rng.random() < 0.9 else FC.cof(s)
        right = rng.choice([FC.fin(t)] * 6 + [FC.fin(t + s[:1]), FC.cof(t)])
        u = u & ~fp.rect(left, right)
    if rng.random() < 0.3:
        u = u | fp.normalize([Rectangle(FC.fin(support()), FC.fin(support()))])
    return u


class TestDiagonalRefuterSweep:
    def test_matches_contains_point_sweep(self):
        fp = FreeProduct(FC, FC)
        rng = random.Random(9)
        outcomes = {certs.RefuteStep: 0, certs.NotUpperBound: 0}
        for _ in range(300):
            u = random_diagonal_grid(fp, rng)
            got = certs.improve_upper_bound_diagonal(u)
            assert got == sweep_diagonal_step(u)
            outcomes[type(got)] += 1
        assert min(outcomes.values()) >= 100


class TestValidatorPredicates:
    """The validator checks named points plus one generic point; the
    references here sweep every natural up to past the largest one named."""

    def test_diagonal_matches_sweep(self):
        fp = FreeProduct(FC, FC)
        rng = random.Random(10)
        verdicts = []
        for _ in range(300):
            u = random_diagonal_grid(fp, rng)
            horizon = max((n for c in u.left_cells + u.right_cells for n in c.data[1]),
                          default=0)
            want = all(fp.contains_point(u, n, n) for n in range(horizon + 2))
            assert _diagonal_upper_bound(u) == want
            verdicts.append(want)
        assert 100 <= sum(verdicts) <= 200

    def test_evens_matches_sweep(self):
        rng = random.Random(11)
        verdicts = []
        for _ in range(400):
            support = rng.sample(range(rng.choice((8, 300))), rng.randint(0, 6))
            if rng.random() < 0.5:
                support = [n | 1 for n in support]  # odd points only
            u = rng.choice((FC.fin, FC.cof))(support)
            horizon = max(support, default=0) + 2
            want = all(u.contains(n) for n in range(0, horizon + 1, 2))
            assert _evens_upper_bound(u) == want
            verdicts.append(want)
        assert 100 <= sum(verdicts) <= 300


class TestValidation:
    def test_valid_certificates_pass(self):
        cert = certs.no_supremum_certificate(certs.EVENS_FAMILY, FC.one, steps=4)
        v = validate_certificate(cert.to_dict())
        assert v.ok and v.steps_checked == 4
        fp = FreeProduct(FC, FC)
        cert = certs.no_supremum_certificate(certs.DIAGONAL_FAMILY, fp.one, steps=4)
        v = validate_certificate(cert.to_dict())
        assert v.ok and v.steps_checked == 4

    def test_tampered_improvement_rejected(self):
        cert = certs.no_supremum_certificate(certs.EVENS_FAMILY, FC.one, steps=3)
        payload = cert.to_dict()
        payload["steps"][1]["improved"] = "cof{0,1,3}"  # excludes the even 0
        assert not validate_certificate(payload).ok

    def test_non_decreasing_step_rejected(self):
        cert = certs.no_supremum_certificate(certs.EVENS_FAMILY, FC.one, steps=3)
        payload = cert.to_dict()
        payload["steps"][0]["improved"] = payload["steps"][0]["upper_bound"]
        assert not validate_certificate(payload).ok

    def test_broken_chain_rejected(self):
        cert = certs.no_supremum_certificate(certs.EVENS_FAMILY, FC.one, steps=3)
        payload = cert.to_dict()
        payload["steps"][2]["upper_bound"] = "cof{7}"
        assert not validate_certificate(payload).ok

    def test_tampered_diagonal_rejected(self):
        fp = FreeProduct(FC, FC)
        cert = certs.no_supremum_certificate(certs.DIAGONAL_FAMILY, fp.one, steps=3)
        payload = cert.to_dict()
        # claim the zero grid as an improvement: no longer an upper bound
        from balg.expr import grid_dict
        payload["steps"][2]["improved"] = grid_dict(fp.zero)
        assert not validate_certificate(payload).ok

    def test_unknown_family_rejected(self):
        assert not validate_certificate(
            {"kind": "no_supremum", "family": "?", "steps": [{}]}).ok
        assert not validate_certificate({"kind": "?"}).ok


class TestExhaustiveRevalidation:
    @pytest.mark.parametrize("alg", [trivial_algebra(), powerset(1), powerset(2), powerset(3)],
                             ids=["P0", "P1", "P2", "P3"])
    def test_certificates_pass(self, alg):
        payload = certs.check_finite_completeness(alg).to_dict()
        v = validate_certificate(payload)
        assert v.ok, v.detail

    @pytest.mark.parametrize("count", [5, 0, -1, 16, True, "15", None])
    def test_count_of_no_powerset_rejected(self, count):
        v = validate_certificate({"kind": "exhaustive_complete", "subsets_checked": count})
        assert not v.ok and "2^(2^n) - 1" in v.detail

    def test_count_past_the_cap_rejected(self):
        v = validate_certificate({"kind": "exhaustive_complete",
                                  "subsets_checked": 2 ** 2 ** 5 - 1})
        assert not v.ok and "from 0 to 4" in v.detail

    def test_planted_wrong_order_rejected(self, monkeypatch):
        from balg import validation

        payload = certs.check_finite_completeness(powerset(2)).to_dict()
        assert validate_certificate(payload).ok
        # {1} below {1,2} forgotten: {1} and {2} then have no common bound
        monkeypatch.setattr(validation, "_below",
                            lambda x, y: x <= y and (x, y) != ({1}, {1, 2}))
        v = validate_certificate(payload)
        assert not v.ok and "least upper bound" in v.detail
