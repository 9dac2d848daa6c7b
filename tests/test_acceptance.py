"""Acceptance criteria, one test per criterion.

Every check is exact (rational arithmetic, structural equality); each
criterion prints a single PASS/FAIL line with its runtime and enforces the
stated wall-clock budget.  Run with ``pytest tests/test_acceptance.py -v -s``
to watch the lines as they appear.
"""

import json
import random
import time
from fractions import Fraction

from balg.algebra import Hom, finite_cofinite, powerset
from balg.free_product import FreeProduct, InducedHom
from balg import bands, certificates as certs, places, tensor
from balg.config import parse_config
from balg.suites import _Suite, _check_chi_isomorphism, run_suites
from balg.validation import _diagonal_upper_bound, validate_certificate

FC = finite_cofinite()


def criterion(num, description, budget, body):
    started = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {num}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - started
    line = f"criterion {num}: PASS - {description} ({elapsed:.2f}s"
    line += f" < {budget}s)" if budget else ")"
    print(line)
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s: {elapsed:.2f}s"


def test_criterion_1_addition_oracle_equivalence():
    def body():
        for alg in (powerset(3), powerset(5), powerset(8), FC):
            rng = random.Random(1001)
            for _ in range(2000):
                f = places.random_place(alg, rng)
                g = places.random_place(alg, rng)
                assert places.add_formula(f, g) == places.add_refine(f, g)

    criterion(1, "formula addition equals refinement addition, 2000 pairs "
                 "on each of P(3), P(5), P(8), finite_cofinite", 5, body)


def test_criterion_2_chi_isomorphism_exhaustive():
    def body():
        for n in range(1, 6):
            s = _Suite()
            _check_chi_isomorphism(s, powerset(n))
            assert s.ok, s.witnesses[:1]

    criterion(2, "chi is a Boolean isomorphism onto the components, "
                 "exhaustive through 5 atoms", 2, body)


def test_criterion_3_free_product_structure():
    def body():
        for n in range(1, 17):
            for m in range(1, 17):
                if n * m > 16:
                    continue
                fp = FreeProduct(powerset(n), powerset(m))
                atoms = fp.atoms()
                assert len(atoms) == n * m
                assert all(not t.is_zero() for t in atoms)
                assert fp.sup(atoms) == fp.one
                if n * m <= 12:
                    seen = {fp.from_atom_mask(mask) for mask in range(1 << (n * m))}
                    assert len(seen) == 1 << (n * m)
        pairings = (FreeProduct(powerset(3), powerset(4)),
                    FreeProduct(powerset(4), powerset(4)),
                    FreeProduct(FC, FC),
                    FreeProduct(powerset(2), FC))
        rng = random.Random(1003)
        for fp in pairings:
            for _ in range(250):
                x = fp.random_elem(rng)
                rects = x.decompose_disjoint()
                assert (len(rects) == 0) == x.is_zero()
                for i, r in enumerate(rects):
                    assert not r.is_zero()
                    assert fp.rect(r.left, r.right).leq(x)
                    for rr in rects[i + 1:]:
                        assert (r.left & rr.left).is_zero()
                assert fp.normalize(rects) == x

    criterion(3, "grid algebra has n*m atoms and 2^(n*m) elements; disjoint "
                 "decomposition rejoins on 1000 random elements", 10, body)


def test_criterion_4_boolean_universal_property():
    def body():
        rng = random.Random(1004)
        sources = [powerset(1), powerset(2), powerset(3)]
        targets = [powerset(k) for k in range(1, 5)]
        for _ in range(100):
            a = rng.choice(sources)
            b = rng.choice(sources)
            d = rng.choice(targets)
            fp = FreeProduct(a, b)
            phi_a = Hom.from_atom_map(a, d, [rng.randint(1, a.atom_count)
                                             for _ in range(d.atom_count)])
            phi_b = Hom.from_atom_map(b, d, [rng.randint(1, b.atom_count)
                                             for _ in range(d.atom_count)])
            ind = InducedHom(phi_a, phi_b, d)
            for x in a.elements():
                assert ind(fp.embed_left(x)) == phi_a(x)
            for y in b.elements():
                assert ind(fp.embed_right(y)) == phi_b(y)
            for _ in range(3):
                x = fp.random_elem(rng)
                assert ind.via_rectangles(x) == ind(x)

    criterion(4, "induced homomorphism commutes with both embeddings on 100 "
                 "random pairs, uniqueness spot-checked", 5, body)


def test_criterion_5_tensor_isomorphism():
    def body():
        rng = random.Random(1005)
        for n in range(1, 5):
            for m in range(1, 5):
                a, b = powerset(n), powerset(m)
                t = tensor.TensorMap(a, b)
                for _ in range(40):
                    v = tensor.random_vector(t.space, rng)
                    w = tensor.random_vector(t.space, rng)
                    lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    assert t.apply(v + w) == t.apply(v) + t.apply(w)
                    assert t.apply(v.scale(lam)) == places.scale(lam, t.apply(v))
                    assert t.apply(v.abs()) == places.abs_(t.apply(v))
                space_a = tensor.atom_space(a)
                space_b = tensor.atom_space(b)
                for p in space_a:
                    for q in space_b:
                        lhs = t.apply(tensor.pure_tensor(
                            tensor.indicator(space_a, p), tensor.indicator(space_b, q)))
                        rhs = tensor.psi(t.fp, places.chi(a.subset([p])),
                                         places.chi(b.subset([q])))
                        assert lhs == rhs
                for _ in range(25):
                    va = tensor.random_vector(space_a, rng)
                    vb = tensor.random_vector(space_b, rng)
                    assert t.apply(tensor.pure_tensor(va, vb)) == tensor.psi(
                        t.fp, tensor.from_atom_model(a, va),
                        tensor.from_atom_model(b, vb))
                verdict = tensor.verify_T_onto_and_injective(a, b, rng=rng)
                assert verdict.ok and verdict.rank == n * m

    criterion(5, "tensor map is a Riesz isomorphism for all factor pairs "
                 "through 4x4: linear, abs-preserving, full rank, onto, "
                 "triangle commutes", 10, body)


def test_criterion_6_bimorphism_axioms_over_fincof():
    def body():
        fp = FreeProduct(FC, FC)
        E = tensor.PlaceSpace(FC)
        verdict = tensor.verify_bimorphism(lambda f, g: tensor.psi(fp, f, g),
                                           E, E, trials=1000,
                                           rng=random.Random(1006))
        assert verdict.ok, verdict.law
        rng = random.Random(2006)
        for _ in range(1000):
            f = places.random_place(FC, rng)
            g = places.random_place(FC, rng)
            base = tensor.psi(fp, f, g)
            assert tensor.psi_terms(fp, tensor.split_representation(f, rng),
                                    g.terms) == base
            assert tensor.psi_terms(fp, f.terms,
                                    tensor.split_representation(g, rng)) == base

    criterion(6, "double-sum map over two infinite backends: bilinearity, "
                 "scalar interchange, slot disjointness, representation "
                 "independence, 1000 trials each", 10, body)


def test_criterion_7_completeness_dichotomy():
    def body():
        for n in range(1, 5):
            cert = certs.check_finite_completeness(powerset(n))
            assert cert.subsets_checked == (1 << (1 << n)) - 1
        rng = random.Random(1007)
        for backend in [powerset(n) for n in range(1, 10)] + [
                FreeProduct(powerset(3), powerset(3))]:
            assert certs.check_model_dedekind_complete(backend, rng, 50) == {
                "ok": True, "families_checked": 50}
        evens = certs.no_supremum_certificate(certs.EVENS_FAMILY, FC.one, steps=3)
        assert isinstance(evens, certs.Certificate) and len(evens.steps) >= 3
        v = validate_certificate(evens.to_dict())
        assert v.ok and v.steps_checked >= 3
        fp = FreeProduct(FC, FC)
        diag = certs.no_supremum_certificate(certs.DIAGONAL_FAMILY, fp.one, steps=3)
        assert isinstance(diag, certs.Certificate) and len(diag.steps) >= 3
        v = validate_certificate(diag.to_dict())
        assert v.ok and v.steps_checked >= 3

    criterion(7, "exhaustive completeness through P(4); bounded suprema by "
                 "places.join in C(P(1)) to C(P(9)) and C(P(3) (x) P(3)), 50 "
                 "families each; revalidated no-supremum certificates for the "
                 "even-singleton and diagonal families", 5, body)


def test_criterion_8_bands():
    def body():
        rng = random.Random(1008)
        space = tuple(range(1, 7))
        for _ in range(1000):
            v = tensor.random_vector(space, rng)
            w = tensor.random_vector(space, rng)
            cut = rng.getrandbits(6)
            v = tensor.AtomVector(space, tuple(
                a if cut >> i & 1 else Fraction(0) for i, a in enumerate(v.values)))
            w = tensor.AtomVector(space, tuple(
                Fraction(0) if cut >> i & 1 else a for i, a in enumerate(w.values)))
            assert v.abs().meet(w.abs()).is_zero()
            assert bands.bands_disjoint(v, w)
        for n in range(1, 11):
            assert len(bands.all_bands(tuple(range(1, n + 1)))) == 1 << n
        for n in range(1, 17):
            for m in range(1, 17):
                if n * m > 16:
                    continue
                verdict = bands.compare_band_products(n, m, pair_samples=60, rng=rng)
                assert verdict.ok and verdict.atoms_each == n * m
                assert len(verdict.atom_bijection) == n * m

    criterion(8, "disjoint elements span disjoint bands (1000 pairs); band "
                 "counts through dimension 10; band products isomorphic with "
                 "explicit atom bijections through 16 atoms", 5, body)


def test_criterion_9_negative_controls():
    def body():
        p2 = powerset(2)
        broken_hom = Hom.from_table(p2, p2, {x: p2.one for x in p2.elements()})
        from balg.algebra import check_homomorphism
        verdict = check_homomorphism(broken_hom, exhaustive=True)
        assert not verdict.ok and verdict.axiom == "disjoint-sum"
        from balg.expr import serialize_value
        serialized = {"axiom": verdict.axiom,
                      "pair": serialize_value(list(verdict.witness)),
                      "lhs": serialize_value(verdict.lhs),
                      "rhs": serialize_value(verdict.rhs)}
        assert json.dumps(serialized)  # wire-ready
        a, b = powerset(2), powerset(2)
        fp = FreeProduct(a, b)
        g0 = places.chi(b.subset([1]))

        def broken_bim(f, g):
            return places.add_refine(tensor.psi(fp, f, g), tensor.psi(fp, f, g0))

        verdict = tensor.verify_bimorphism(
            broken_bim, tensor.PlaceSpace(a), tensor.PlaceSpace(b),
            trials=100, rng=random.Random(1009))
        assert not verdict.ok and verdict.witness
        assert json.dumps(serialize_value(list(verdict.witness)))

    criterion(9, "broken-homomorphism and broken-bimorphism fixtures rejected "
                 "with serialized counterexamples", None, body)


def test_criterion_10_reproducibility():
    def body():
        cfg_text = json.dumps({
            "algebras": [
                {"name": "A", "kind": "powerset", "atoms": 2},
                {"name": "B", "kind": "powerset", "atoms": 3},
                {"name": "N", "kind": "finite_cofinite"},
            ],
            "suites": ["core_axioms", "homomorphisms", "free_product",
                       "place_addition", "regularity", "tensor_iso",
                       "universal_property", "bands", "completeness"],
            "trials": 60,
            "seed": 424242,
        })

        def run_once() -> str:
            report = run_suites(parse_config(cfg_text)).to_dict()
            for s in report["suites"]:
                del s["seconds"]
            return json.dumps(report, sort_keys=True, indent=2)

        first = run_once()
        second = run_once()
        assert first == second
        assert all(s["verdict"] == "pass"
                   for s in json.loads(first)["suites"])

    criterion(10, "identical configuration and seed give byte-identical "
                  "reports apart from timing", None, body)


def test_criterion_11_certificate_revalidation_at_scale():
    fp = FreeProduct(FC, FC)
    far = fp.one & ~fp.rect(FC.fin([10**6]), FC.fin([3]))
    chains = [
        (certs.no_supremum_certificate(certs.DIAGONAL_FAMILY, fp.one, steps=160), 160),
        (certs.no_supremum_certificate(certs.DIAGONAL_FAMILY, far, steps=5), 5),
        (certs.no_supremum_certificate(certs.EVENS_FAMILY, FC.one, steps=1000), 1000),
    ]
    payloads = [(cert.to_dict(), steps) for cert, steps in chains]

    def body():
        for payload, steps in payloads:
            v = validate_certificate(payload)
            assert v.ok and v.steps_checked == steps, v

    criterion(11, "revalidated no-supremum certificates: a 160-step diagonal "
                  "chain from the unit, a diagonal chain whose grids name 10^6, "
                  "and a 1000-step even-singleton chain", 4, body)


def test_criterion_12_diagonal_chain_builds_at_scale():
    fp = FreeProduct(FC, FC)

    def body():
        cert = certs.no_supremum_certificate(certs.DIAGONAL_FAMILY, fp.one, steps=320)
        assert len(cert.steps) == 320
        # each step splits one point off each axis's cofinite cell
        last = cert.steps[-1].improved
        assert len(last.left_cells) == len(last.right_cells) == 321
        assert _diagonal_upper_bound(last)

    criterion(12, "a 320-step diagonal chain from the unit builds", 1, body)
