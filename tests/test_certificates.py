import copy
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balg import algebra, free_product, places
from balg.algebra import AlgebraError, Elem, powerset, trivial_algebra
from balg.expr import ExprError, grid_dict, parse_element, rectform_from_grid, serialize_value
from balg.free_product import FreeProduct, Rectangle, RectForm
from balg import certificates as certs
from balg.points import holds
from balg.tensor import AtomVector
from balg.validation import (ValidationResult, _diagonal_upper_bound, _evens_upper_bound,
                             validate_certificate)
from conftest import FC, naturals


class TestFiniteCompleteness:
    def test_subset_counts(self):
        assert certs.check_finite_completeness(powerset(2)).subsets_checked == 15
        assert certs.check_finite_completeness(powerset(1)).subsets_checked == 3
        assert certs.check_finite_completeness(trivial_algebra()).subsets_checked == 1

    def test_products(self):
        for n, m in ((1, 1), (1, 2), (2, 1), (1, 4), (2, 2)):
            cert = certs.check_finite_completeness(FreeProduct(powerset(n), powerset(m)))
            assert cert.subsets_checked == 2 ** 2 ** (n * m) - 1
            assert validate_certificate(cert.to_dict()).ok
        trivial = FreeProduct(trivial_algebra(), powerset(2))
        assert certs.check_finite_completeness(trivial).subsets_checked == 1

    def test_cap(self):
        with pytest.raises(AlgebraError):
            certs.check_finite_completeness(powerset(5))
        with pytest.raises(AlgebraError):
            certs.check_finite_completeness(FC)
        for fp in (FreeProduct(powerset(2), powerset(3)), FreeProduct(FC, powerset(1))):
            with pytest.raises(AlgebraError):
                certs.check_finite_completeness(fp)

    # each planted defect below gets past a walk of the bitmask order on
    # plain ints, which never asks the algebra anything

    def test_planted_wrong_powerset_order_raises(self, monkeypatch):
        # bitsets compared as integers: {1} and {2} have {2} for supremum,
        # not their join {1, 2}
        monkeypatch.setattr(Elem, "leq", lambda x, y: x.data <= y.data)
        with pytest.raises(AssertionError, match="subset 0x6 "):
            certs.check_finite_completeness(powerset(2))

    def test_planted_wrong_product_order_raises(self, monkeypatch):
        monkeypatch.setattr(RectForm, "leq",
                            lambda x, y: x.fp.atom_mask(x) <= x.fp.atom_mask(y))
        with pytest.raises(AssertionError, match="no least upper bound"):
            certs.check_finite_completeness(FreeProduct(powerset(2), powerset(2)))

    def test_non_injective_enumeration_raises(self, monkeypatch):
        # atom 0 dropped from every mask: each element is listed twice, and
        # the order among the copies has every least upper bound it needs
        from_atom_mask = FreeProduct.from_atom_mask
        monkeypatch.setattr(FreeProduct, "from_atom_mask",
                            lambda fp, mask: from_atom_mask(fp, mask & ~1))
        with pytest.raises(AssertionError, match="repeats an element"):
            certs.check_finite_completeness(FreeProduct(powerset(2), powerset(2)))

    # the model check on the place-function spaces C(P(n)) and C(P(n) (x) P(m))

    def test_model_bounded_sups(self):
        rng = random.Random(0)
        backends = [powerset(n) for n in (1, 2, 3)] + [
            FreeProduct(powerset(n), powerset(m)) for n, m in ((1, 3), (2, 2), (3, 3))]
        for backend in backends:
            assert certs.check_model_dedekind_complete(backend, rng, 12) == {
                "ok": True, "families_checked": 12}

    def test_model_check_does_no_vector_lattice_work(self, monkeypatch):
        # the supremum comes from the place-function lattice; the atom
        # coordinates are only read, never joined or compared as vectors
        def refuse(*args):
            raise AssertionError("an AtomVector lattice operation in the model check")
        monkeypatch.setattr(AtomVector, "join", refuse)
        monkeypatch.setattr(AtomVector, "leq", refuse)
        fp = FreeProduct(powerset(3), powerset(3))
        assert certs.check_model_dedekind_complete(fp, random.Random(0), 20)["ok"]

    @pytest.mark.parametrize("backend", [powerset(3), FreeProduct(powerset(2), powerset(3))],
                             ids=["P3", "P2xP3"])
    @pytest.mark.parametrize("planted", [
        places.add_refine, places.meet,
        # an upper bound of every member, but not the least: only the
        # coordinate route can catch it
        lambda f, g: places.lattice(f, g, "join") + places.unit(f.backend),
    ], ids=["sum", "meet", "raised"])
    def test_planted_wrong_join_fails_at_the_first_family(self, monkeypatch, backend, planted):
        monkeypatch.setattr(places, "join", planted)
        assert certs.check_model_dedekind_complete(backend, random.Random(0), 20) == {
            "ok": False, "families_checked": 1}

    @pytest.mark.parametrize("backend", [FC, FreeProduct(FC, powerset(2))],
                             ids=["fincof", "fincof x P2"])
    def test_no_finite_atom_model_raises(self, backend):
        with pytest.raises(AlgebraError):
            certs.check_model_dedekind_complete(backend, random.Random(0), 3)

    def test_no_families_raises(self):
        with pytest.raises(AlgebraError, match="at least one family"):
            certs.check_model_dedekind_complete(powerset(2), random.Random(0), 0)


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
        assert certs.first_subset_without_supremum(bitmask_order(count)) is None

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
            assert holds(u, [(m, m2)]) == [True]
            assert holds(step.improved, [(m, m2)]) == [False]
            u = step.improved


def unit_minus(fp, holes):
    """The unit with the points ``holes`` cut out."""
    return reduce(lambda u, h: u & ~fp.rect(FC.fin([h[0]]), FC.fin([h[1]])), holes, fp.one)


off_diagonal_holes = st.lists(st.tuples(naturals(), naturals()).filter(lambda h: h[0] != h[1]),
                              max_size=5)


class TestChainArguments:
    """``no_supremum_certificate`` refuses a call it cannot answer with
    AlgebraError, rather than a KeyError, an empty certificate or an
    AttributeError from inside a refuter."""

    def test_unknown_family(self):
        with pytest.raises(AlgebraError, match="family"):
            certs.no_supremum_certificate("odd singletons", FC.one)

    def test_fewer_than_one_step(self):
        for steps in (0, -3):
            with pytest.raises(AlgebraError, match="steps"):
                certs.no_supremum_certificate(certs.EVENS_FAMILY, FC.one, steps=steps)

    def test_start_of_the_wrong_type(self):
        for family, start in ((certs.DIAGONAL_FAMILY, FC.one),
                              (certs.EVENS_FAMILY, FreeProduct(FC, FC).one)):
            with pytest.raises(AlgebraError, match="lives"):
                certs.no_supremum_certificate(family, start)


class TestDiagonalCut:
    """Each step cuts its point straight out of the tail x tail entry; the
    generic ``u & ~rect`` is the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(holes=off_diagonal_holes, steps=st.integers(1, 4))
    def test_matches_the_generic_difference(self, holes, steps):
        fp = FreeProduct(FC, FC)
        u = unit_minus(fp, holes)
        for _ in range(steps):
            step = certs.improve_upper_bound_diagonal(u)
            assert isinstance(step, certs.RefuteStep)
            m, m2 = step.defect
            assert step.improved == u & ~fp.rect(FC.fin([m]), FC.fin([m2]))
            # only a canonical grid reads back
            assert rectform_from_grid(fp, grid_dict(step.improved)) == step.improved
            u = step.improved

    def test_builds_without_refining(self, monkeypatch):
        fp = FreeProduct(FC, FC)
        start = unit_minus(fp, [(0, 5), (5, 0), (3, 10**6), (2, 3)])

        def refuse(*args):
            raise AssertionError("the cut refined or recanonicalised a grid")

        for module, name in [(free_product, "_joint_cells"), (free_product, "_join_cells"),
                             (free_product, "_coarsen"),
                             (free_product, "_meets"), (free_product, "refine_partition"),
                             (algebra, "_meets"), (algebra, "refine_partition")]:
            monkeypatch.setattr(module, name, refuse)
        cert = certs.no_supremum_certificate(certs.DIAGONAL_FAMILY, start, steps=20)
        assert len(cert.steps) == 20
        assert all(_diagonal_upper_bound(s.improved) for s in cert.steps)


def sweep_diagonal_step(u):
    """Reference refuter step: test (n, n) with ``holds`` for every n up to
    one past the largest natural the cof cells leave out."""
    fp = u.fp
    left_out = next(c for c in u.left_cells if c.data[0] == "cof").data[1]
    right_out = next(c for c in u.right_cells if c.data[0] == "cof").data[1]
    horizon = max(set(left_out) | set(right_out), default=-1) + 1
    for n, held in enumerate(holds(u, [(n, n) for n in range(horizon + 1)])):
        if not held:
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
    def test_matches_pointwise_sweep(self):
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
    """The validator checks named points plus the tail point; the
    references here sweep every natural up to past the largest one named."""

    def test_diagonal_matches_sweep(self):
        fp = FreeProduct(FC, FC)
        rng = random.Random(10)
        verdicts = []
        for _ in range(300):
            u = random_diagonal_grid(fp, rng)
            horizon = max((n for c in u.left_cells + u.right_cells for n in c.data[1]),
                          default=0)
            want = all(holds(u, [(n, n) for n in range(horizon + 2)]))
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


def chain_payload(family, steps):
    start = FC.one if family == certs.EVENS_FAMILY else FreeProduct(FC, FC).one
    return certs.no_supremum_certificate(family, start, steps=steps).to_dict()


def tampered(edit, family=certs.DIAGONAL_FAMILY):
    """A three-step chain payload of ``family`` after ``edit``."""
    payload = chain_payload(family, 3)
    edit(payload)
    return payload


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
        assert validate_certificate(payload) == ValidationResult(
            False, "step 1: improvement loses the bound", 1)

    def test_non_decreasing_step_rejected(self):
        cert = certs.no_supremum_certificate(certs.EVENS_FAMILY, FC.one, steps=3)
        payload = cert.to_dict()
        payload["steps"][0]["improved"] = payload["steps"][0]["upper_bound"]
        assert validate_certificate(payload) == ValidationResult(
            False, "step 0: no strict decrease", 0)

    def test_broken_chain_rejected(self):
        cert = certs.no_supremum_certificate(certs.EVENS_FAMILY, FC.one, steps=3)
        payload = cert.to_dict()
        payload["steps"][2]["upper_bound"] = "cof{7}"
        assert validate_certificate(payload) == ValidationResult(
            False, "step 2: chain broken", 2)

    def test_tampered_diagonal_rejected(self):
        fp = FreeProduct(FC, FC)
        cert = certs.no_supremum_certificate(certs.DIAGONAL_FAMILY, fp.one, steps=3)
        payload = cert.to_dict()
        # claim the zero grid as an improvement: no longer an upper bound
        payload["steps"][2]["improved"] = grid_dict(fp.zero)
        assert validate_certificate(payload) == ValidationResult(
            False, "step 2: improvement loses the bound", 2)

    def test_unknown_family_rejected(self):
        assert validate_certificate(
            {"kind": "no_supremum", "family": "?", "steps": [{}]}
        ) == ValidationResult(False, "unknown witness family '?'")
        assert validate_certificate({"kind": "?"}) == ValidationResult(
            False, "unknown certificate kind '?'")

    @pytest.mark.parametrize("family", [certs.EVENS_FAMILY, certs.DIAGONAL_FAMILY])
    def test_earlier_bound_breaks_the_chain(self, family):
        payload = chain_payload(family, 5)
        payload["steps"][3]["upper_bound"] = copy.deepcopy(payload["steps"][1]["upper_bound"])
        assert validate_certificate(payload) == ValidationResult(
            False, "step 3: chain broken", 3)

    def test_first_bound_missing_a_diagonal_point(self):
        fp = FreeProduct(FC, FC)
        payload = chain_payload(certs.DIAGONAL_FAMILY, 3)
        payload["steps"][0]["upper_bound"] = grid_dict(~fp.rect(FC.fin([3]), FC.fin([3])))
        assert validate_certificate(payload) == ValidationResult(
            False, "step 0: start is not an upper bound", 0)

    @pytest.mark.parametrize("tamper, message", [
        (lambda g: g["matrix"][0].pop(), "grid matrix does not match its cells"),
        (lambda g: g["matrix"].__setitem__(1, list(g["matrix"][0])),
         "grid has two equal rows or two equal columns"),
        (lambda g: g["left_cells"].__setitem__(0, "fin{x}"), "expected RBRACE"),
        (lambda g: g["matrix"][0].__setitem__(0, "yes"),
         "grid matrix entries must be true or false"),
    ])
    def test_malformed_improvement_after_a_reused_bound_raises(self, tamper, message):
        payload = chain_payload(certs.DIAGONAL_FAMILY, 4)
        # step 2's bound is step 1's improvement, read once already
        assert payload["steps"][2]["upper_bound"] == payload["steps"][1]["improved"]
        tamper(payload["steps"][2]["improved"])
        with pytest.raises(ExprError, match=message):
            validate_certificate(payload)

    def test_number_in_a_reused_bound_raises(self):
        """A bound equal to the previous improvement under ``==``, but for a 1
        in place of a true, is parsed afresh and refused."""
        payload = chain_payload(certs.DIAGONAL_FAMILY, 3)
        matrix = payload["steps"][1]["upper_bound"]["matrix"]
        row = next(row for row in matrix if True in row)
        row[row.index(True)] = 1
        assert payload["steps"][1]["upper_bound"] == payload["steps"][0]["improved"]
        with pytest.raises(ExprError, match="true or false"):
            validate_certificate(payload)

    @pytest.mark.parametrize("payload, verdict", [
        (tampered(lambda p: p["steps"][1].pop("improved")),
         ValidationResult(False, "step 1: not an object with both bounds", 1)),
        (tampered(lambda p: p["steps"][0].update(upper_bound="1")), ExprError),
        (tampered(lambda p: p["steps"][0]["improved"].update(matrix=5)), ExprError),
        (tampered(lambda p: p["steps"][0]["improved"].pop("left_cells")), ExprError),
        (tampered(lambda p: p.update(steps="abc")),
         ValidationResult(False, "no_supremum steps are not a list")),
        (tampered(lambda p: p["steps"][0]["improved"]["left_cells"].__setitem__(0, 1)),
         ExprError),
        (tampered(lambda p: p["steps"][0].update(improved=5), certs.EVENS_FAMILY), ExprError),
        ([chain_payload(certs.DIAGONAL_FAMILY, 3)],
         ValidationResult(False, "a certificate is a JSON object")),
    ], ids=["step without improved", "diagonal bound as text", "matrix as a number",
            "grid without left_cells", "steps as text", "cell as a number",
            "evens improvement as a number", "payload as a list"])
    def test_malformed_structure_fails_or_raises_expr_error(self, payload, verdict):
        """Never a KeyError or TypeError: a payload, step list or step of the
        wrong shape fails, naming the step, and a grid or an element text of
        the wrong shape is an ExprError."""
        if verdict is ExprError:
            with pytest.raises(ExprError):
                validate_certificate(payload)
        else:
            assert validate_certificate(payload) == verdict

    @pytest.mark.parametrize("family, length", [(certs.EVENS_FAMILY, 8),
                                                (certs.DIAGONAL_FAMILY, 6)])
    def test_verdicts_match_reparsing_every_bound(self, family, length):
        """Planted mutations get the verdict, or the exception, of a validator
        that parses and checks every bound afresh."""
        rng = random.Random(12)
        clean = chain_payload(family, length)
        outcomes = set()
        for _ in range(150):
            payload = copy.deepcopy(clean)
            mutate_chain(payload["steps"], rng)
            got, want = outcome(validate_certificate, payload), outcome(reparse_validate, payload)
            assert got == want
            outcomes.add(want[0])
        assert {ValidationResult, ExprError} <= outcomes


class TestChainPayload:
    @pytest.mark.parametrize("family, start", [
        (certs.EVENS_FAMILY, FC.cof([1, 5])),
        (certs.DIAGONAL_FAMILY, unit_minus(FreeProduct(FC, FC), [(3, 7), (0, 10**6)])),
    ])
    def test_matches_serialising_every_field(self, family, start):
        cert = certs.no_supremum_certificate(family, start, steps=6)
        chained = cert.steps
        # two chains spliced together: step 3's bound is not step 2's improvement
        other = certs.no_supremum_certificate(family, chained[1].improved, steps=2).steps
        for steps in (chained, chained[:3] + other):
            cert = certs.Certificate("no_supremum", family, steps)
            assert cert.to_dict()["steps"] == [
                {"upper_bound": serialize_value(s.upper_bound),
                 "defect": serialize_value(s.defect),
                 "improved": serialize_value(s.improved)} for s in steps]

    def test_steps_share_no_list_or_dict(self):
        payload = chain_payload(certs.DIAGONAL_FAMILY, 5)
        owners = {}
        for k, step in enumerate(payload["steps"]):
            for box in containers(step):
                assert owners.setdefault(id(box), k) == k
        bound = copy.deepcopy(payload["steps"][2]["upper_bound"])
        payload["steps"][1]["improved"]["matrix"][0][0] ^= True
        payload["steps"][1]["improved"]["matrix"].append([])
        payload["steps"][1]["improved"]["left_cells"].pop()
        assert payload["steps"][2]["upper_bound"] == bound


def containers(value):
    """Every list and dict inside a payload value, itself included."""
    if isinstance(value, dict):
        yield value
        for v in value.values():
            yield from containers(v)
    elif isinstance(value, list):
        yield value
        for v in value:
            yield from containers(v)


def reparse_validate(payload):
    """Reference chain validator: both bounds of every step parsed and
    checked, in the order ``validate_certificate`` checks them."""
    family, steps = payload["family"], payload["steps"]
    if family == certs.EVENS_FAMILY:
        parse, is_upper = (lambda s: parse_element(FC, s)), _evens_upper_bound
    else:
        fp = FreeProduct(FC, FC)
        parse, is_upper = (lambda s: rectform_from_grid(fp, s)), _diagonal_upper_bound
    previous = None
    for k, step in enumerate(steps):
        if not ("upper_bound" in step and "improved" in step):
            return ValidationResult(False, f"step {k}: not an object with both bounds", k)
        u = parse(step["upper_bound"])
        improved = parse(step["improved"])
        if previous is not None and u != previous:
            return ValidationResult(False, f"step {k}: chain broken", k)
        if not is_upper(u):
            return ValidationResult(False, f"step {k}: start is not an upper bound", k)
        if not improved.leq(u) or improved == u:
            return ValidationResult(False, f"step {k}: no strict decrease", k)
        if not is_upper(improved):
            return ValidationResult(False, f"step {k}: improvement loses the bound", k)
        previous = improved
    return ValidationResult(True, "all steps revalidated", len(steps))


def outcome(validate, payload):
    try:
        return ValidationResult, validate(payload)
    except Exception as exc:  # the exception's type and text are the verdict
        return type(exc), str(exc)


def mutate_chain(steps, rng):
    """One planted change to a serialised chain: a bound or an improvement
    taken from another step, a grid entry flipped, or a grid, cell or row
    spoiled."""
    k = rng.randrange(len(steps))
    key = rng.choice(["upper_bound", "improved"])
    kind = rng.randrange(6)
    if kind == 0:
        other = steps[rng.randrange(len(steps))]
        steps[k][key] = copy.deepcopy(other[rng.choice(["upper_bound", "improved"])])
    elif kind == 1:
        del steps[k][key]
    elif isinstance(steps[k][key], str):
        steps[k][key] = rng.choice(["cof{" + str(rng.randrange(12)) + "}", "fin{0}", "cof{x}",
                                    steps[k][key] + "&1", "1", "0"])
    else:
        grid = steps[k][key]
        i = rng.randrange(len(grid["matrix"]))
        j = rng.randrange(len(grid["right_cells"]))
        if kind == 2:
            grid["matrix"][i][j] = not grid["matrix"][i][j]
        elif kind == 3:
            grid["matrix"][i][j] = rng.choice([1, 0, "yes", None])
        elif kind == 4:
            grid["matrix"][i] = list(grid["matrix"][rng.randrange(len(grid["matrix"]))])
        else:
            grid["left_cells"][i] = rng.choice(["fin{" + str(rng.randrange(12)) + "}",
                                                "cof{}", "fin{"])


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
