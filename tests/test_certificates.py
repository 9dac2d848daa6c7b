import random

import pytest

from balg.algebra import AlgebraError, powerset, trivial_algebra
from balg.free_product import FreeProduct, Rectangle
from balg import certificates as certs
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

    def test_model_bounded_sups(self):
        rng = random.Random(0)
        for dim in (1, 2, 3, 4, 9):
            verdict = certs.check_model_dedekind_complete(dim, rng)
            assert verdict["ok"]


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
