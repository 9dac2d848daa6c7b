import hashlib
import json
import random
from pathlib import Path

import pytest

from balg import bands
from balg import certificates as certs
from balg import places, tensor
from balg.algebra import finite_cofinite
from balg.config import default_config, parse_config
from balg.expr import serialize_value
from balg.free_product import FreeProduct
from balg.suites import SUITES, Report, _Suite, run_suites, suite_rng
from balg.validation import validate_certificate


def light_config(suites, trials=30):
    return parse_config(json.dumps({
        "algebras": [
            {"name": "A", "kind": "powerset", "atoms": 2},
            {"name": "B", "kind": "powerset", "atoms": 3},
            {"name": "N", "kind": "finite_cofinite"},
        ],
        "suites": suites,
        "trials": trials,
        "seed": 11,
    }))


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes(name):
    cfg = light_config([name])
    report = run_suites(cfg)
    assert report.suites[0].verdict == "pass", report.suites[0].witnesses[:2]


def test_default_config_all_pass():
    report = run_suites(default_config())
    assert report.all_pass
    assert [s.name for s in report.suites] == list(default_config().suites)


def test_a_law_that_always_fails_counts_every_failure():
    s = _Suite()
    for i in range(5):
        s.table("here", (("always fails", False), ("holds", i < 5)), x=i)
    s.check(False, "always fails", "there", x=99)
    assert not s.ok
    assert s.tally() == {"always fails": {"runs": 6, "skipped": 0, "failed": 6},
                         "holds": {"runs": 5, "skipped": 0, "failed": 0}}
    assert s.witnesses == [{"failed": "here: always fails", "x": 0}]


def test_a_skipped_sample_runs_its_fallback():
    s = _Suite()
    for y in (-1, 2, -3):
        s.table("", (("y positive", (y if y > 0 else -y) > 0, y > 0),), y=y)
    s.check(False, "y positive", "", False, y=0)
    assert not s.ok and s.witnesses == [{"failed": "y positive", "y": 0}]
    assert s.tally() == {"y positive": {"runs": 4, "skipped": 3, "failed": 1}}


def test_a_law_that_never_runs_fails_its_suite(monkeypatch):
    def planted(cfg, rng):
        s = _Suite()
        s.check(True, "runs")
        for i in range(3):
            s.table("", (("never runs", None, False),), x=i)
        return s

    monkeypatch.setitem(SUITES, "core_axioms", planted)
    report = run_suites(light_config(["core_axioms"]))
    entry = report.suites[0]
    assert entry.verdict == "fail"
    assert entry.witnesses == [{"failed": "law ran zero times", "law": "never runs"}]
    assert entry.laws["never runs"] == {"runs": 0, "skipped": 3, "failed": 0}


def test_a_suite_that_raises_fails_and_the_rest_still_run(monkeypatch):
    def raising(cfg, rng):
        raise RuntimeError("planted defect")

    monkeypatch.setitem(SUITES, "core_axioms", raising)
    report = run_suites(light_config(["core_axioms", "homomorphisms"]))
    raised, after = report.suites
    assert not report.all_pass and raised.verdict == "fail"
    assert raised.witnesses == [{"failed": "suite raised",
                                 "error": "RuntimeError: planted defect"}]
    assert raised.laws == {"suite raised": {"runs": 1, "skipped": 0, "failed": 1}}
    assert after.verdict == "pass" and after.laws


def test_every_law_runs_at_one_trial():
    # one trial leaves the fewest samples: each precondition that no random
    # sample meets must still run its law on a fallback sample
    for seed in range(12):
        data = default_config_with(trials=1, seed=seed)
        report = run_suites(parse_config(json.dumps(data)))
        for s in report.suites:
            assert s.verdict == "pass", (seed, s.name, s.witnesses[:1])
            assert s.laws and all(c["runs"] >= 1 for c in s.laws.values()), (seed, s.name)


def test_negative_control_fixture_fails_suite(monkeypatch):
    # checking every place-function map as m(f, g) + m(f, unit), which is not
    # additive in g, must flip the suite to fail, with the counterexample
    # serialized
    cfg = light_config(["tensor_iso"])
    outcome = SUITES["tensor_iso"](cfg, suite_rng(cfg.seed, "tensor_iso"))
    assert outcome.ok
    verify = tensor.verify_bimorphism

    def broken_verify(m, E, F, trials=200, rng=None):
        if isinstance(E, tensor.PlaceSpace):
            unit = places.unit(F.backend)
            return verify(lambda f, g: m(f, g) + m(f, unit), E, F, trials, rng)
        return verify(m, E, F, trials, rng)

    monkeypatch.setattr(tensor, "verify_bimorphism", broken_verify)
    broken = SUITES["tensor_iso"](cfg, suite_rng(cfg.seed, "tensor_iso"))
    assert not broken.ok
    failure = [w for w in broken.witnesses if "failed" in w]
    assert failure and failure[0]["witness"]


def test_fixture_rejections_are_recorded():
    cfg = light_config(["homomorphisms", "tensor_iso"])
    report = run_suites(cfg)
    notes = [w for s in report.suites for w in s.witnesses if "note" in w]
    assert any("broken-homomorphism" in w["note"] for w in notes)
    assert any("broken-bimorphism" in w["note"] for w in notes)


def test_completeness_payload_structure():
    cfg = light_config(["completeness"])
    report = run_suites(cfg)
    payload = report.suites[0].certificate
    assert payload["certificates"]["evens"]["kind"] == "no_supremum"
    assert payload["certificates"]["diagonal"]["kind"] == "no_supremum"
    assert len(payload["certificates"]["evens"]["steps"]) >= 3
    assert len(payload["certificates"]["diagonal"]["steps"]) >= 3
    cases = [entry["case"] for entry in payload["dichotomy"]]
    assert len(cases) == 5
    assert any("unverifiable" in entry for entry in payload["dichotomy"])
    assert all(e["subsets_checked"] >= 1 for e in payload["exhaustive"])
    # one entry per small powerset of at most 3 atoms, one per pair of their
    # atom counts with n m <= 9, each over max(1, trials // 4) families
    small = [a for a in cfg.small_powersets if a.atom_count <= 3]
    pairs = sorted({(a.atom_count, b.atom_count) for a in cfg.small_powersets
                    for b in cfg.small_powersets if a.atom_count * b.atom_count <= 9})
    sups = payload["model_bounded_sups"]
    assert [e["algebra"] for e in sups if "algebra" in e] == [a.name for a in small]
    assert [tuple(e["product"]) for e in sups if "product" in e] == pairs
    assert len(sups) == len(small) + len(pairs) == 6
    assert all(e["ok"] and e["families_checked"] == max(1, cfg.trials // 4) for e in sups)


def test_bands_draws_trials_pairs(monkeypatch):
    calls = []

    def fake_compare(n, m, pair_samples=200, rng=None):
        calls.append(((n, m), pair_samples))
        return bands.BandProductCheck(True, n * m, "stub")

    monkeypatch.setattr(bands, "compare_band_products", fake_compare)
    cfg = light_config(["bands"], trials=7)
    assert SUITES["bands"](cfg, suite_rng(cfg.seed, "bands")).ok
    assert sorted(calls) == [((2, 2), 7), ((2, 3), 7), ((3, 2), 7), ((3, 3), 7)]


# sha256 of the timeless report (every "seconds" set to 0) of
# configs/default.json at trials 15, of the same config with a trivial
# algebra added, and of the certify outputs of ``certify_outputs``; a change
# that alters these bytes on purpose updates the digests and says which
# fields changed.  REPORT_DIGESTS and TRIVIAL_REPORT_DIGEST are taken with
# each suite's "laws" block removed, the *_WITH_LAWS digests of the whole
# report.
REPORT_DIGESTS = {
    0: "50afd424fddae9313f38d7076aaa80e831c913e585d9e83c27f6ca41de011117",
    1: "ed6dfecbffbd324cc4bc07723aeb8b8ddf27648b4c2189bb76907318ad3d82a6",
}
TRIVIAL_REPORT_DIGEST = "00e341e3996f0ac25205c8faf077e0d46433104f21162134a01d98c2bbda94ee"
REPORT_DIGESTS_WITH_LAWS = {
    0: "fbe1c388b83d359ddab2ae441f2468f8c484525ddb8b40a2b2b1313bdb105920",
    1: "2f712d1f01ae64a845093c6f8d7886d09308f6a3cc8185ad20df262484aa93ff",
}
TRIVIAL_REPORT_DIGEST_WITH_LAWS = "7590db8439bf6cdc90509b2498d5814f6c1ad3a8ea68967283cf796fa0f86439"
CERTIFICATE_DIGEST = "ef1a48add35204cf501b77df75ff31f788b98756fc166ecb5fba204521762614"


def default_config_with(**changes):
    path = Path(__file__).resolve().parent.parent / "configs" / "default.json"
    return {**json.loads(path.read_text(encoding="utf-8")), **changes}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, indent=2).encode()).hexdigest()


def timeless_report_digests(data: dict) -> tuple[str, str]:
    """Digests of the timeless report without and with its laws blocks."""
    d = run_suites(parse_config(json.dumps(data))).to_dict()
    for s in d["suites"]:
        s["seconds"] = 0
    full = digest(d)
    for s in d["suites"]:
        del s["laws"]
    return digest(d), full


@pytest.mark.parametrize("seed", sorted(REPORT_DIGESTS))
def test_report_bytes_are_pinned(seed):
    data = default_config_with(trials=15, seed=seed)
    assert timeless_report_digests(data) == (REPORT_DIGESTS[seed],
                                             REPORT_DIGESTS_WITH_LAWS[seed])


def test_trivial_algebra_report_bytes_are_pinned():
    data = default_config_with(trials=15, seed=0)
    data["algebras"] = data["algebras"] + [{"name": "T", "kind": "powerset", "trivial": True}]
    assert timeless_report_digests(data) == (TRIVIAL_REPORT_DIGEST,
                                             TRIVIAL_REPORT_DIGEST_WITH_LAWS)


def certify_outputs() -> list[dict]:
    """What ``balg certify`` prints, revalidation verdict included, for 40
    diagonal starts and 20 evens starts of 4 to 12 steps drawn from a seeded
    generator: the unit with off-diagonal points cut out (now and then a
    diagonal one, which is no upper bound), sometimes joined with a
    rectangle, and cofinite sets leaving out odd naturals (now and then an
    even one), or a finite set."""
    rng = random.Random(8)
    fc = finite_cofinite()
    fp = FreeProduct(fc, fc)
    starts = []
    for _ in range(40):
        u = fp.one
        for _ in range(rng.randint(0, 4)):
            m = rng.choice((rng.randrange(12), rng.randrange(10**6)))
            m2 = rng.randrange(12)
            if m != m2 or rng.random() < 0.2:
                u = u & ~fp.rect(fc.fin([m]), fc.fin([m2]))
        if rng.random() < 0.25:
            u = u | fp.rect(fc.fin(rng.sample(range(12), 2)), fc.cof([rng.randrange(12)]))
        starts.append((certs.DIAGONAL_FAMILY, u, rng.randint(4, 12)))
    for _ in range(20):
        left_out = [2 * rng.randrange(30) + (rng.random() < 0.9) for _ in range(rng.randint(0, 3))]
        u = fc.cof(left_out) if rng.random() < 0.9 else fc.fin(left_out)
        starts.append((certs.EVENS_FAMILY, u, rng.randint(4, 12)))
    out = []
    for family, u, steps in starts:
        outcome = certs.no_supremum_certificate(family, u, steps=steps)
        if isinstance(outcome, certs.NotUpperBound):
            out.append({"verdict": "not_upper_bound", "family": family,
                        "witness": serialize_value(outcome.witness)})
        else:
            payload = outcome.to_dict()
            payload["revalidated"] = validate_certificate(payload).ok
            out.append(payload)
    return out


def test_certificate_bytes_are_pinned():
    outputs = certify_outputs()
    assert sum("revalidated" in o for o in outputs) >= 40
    assert all(o.get("revalidated", True) for o in outputs)
    assert digest(outputs) == CERTIFICATE_DIGEST


def test_reports_reproducible_modulo_timing():
    cfg = light_config(["core_axioms", "place_addition", "completeness"])

    def stripped(report: Report) -> str:
        d = report.to_dict()
        for s in d["suites"]:
            s.pop("seconds")
        return json.dumps(d, sort_keys=True)

    assert stripped(run_suites(cfg)) == stripped(run_suites(cfg))


def test_different_seeds_still_pass():
    for seed in (1, 2):
        cfg = parse_config(json.dumps({
            "algebras": [{"name": "A", "kind": "powerset", "atoms": 3},
                         {"name": "N", "kind": "finite_cofinite"}],
            "suites": ["place_addition"],
            "trials": 40,
            "seed": seed,
        }))
        assert run_suites(cfg).all_pass


def test_trivial_algebra_flows_through():
    cfg = parse_config(json.dumps({
        "algebras": [{"name": "T", "kind": "powerset", "trivial": True},
                     {"name": "A", "kind": "powerset", "atoms": 2},
                     {"name": "N", "kind": "finite_cofinite"}],
        "suites": ["core_axioms", "free_product", "completeness"],
        "trials": 25,
        "seed": 3,
    }))
    report = run_suites(cfg)
    assert report.all_pass


def test_serialize_value_shapes():
    from fractions import Fraction

    from balg.algebra import powerset
    from balg.free_product import FreeProduct
    from balg import places, tensor

    p = powerset(2)
    assert serialize_value(p.subset([1])) == "{1}"
    assert serialize_value(Fraction(1, 2)) == "1/2"
    assert serialize_value(places.chi(p.subset([1]))) == "chi({1})"
    fp = FreeProduct(p, p)
    grid = serialize_value(fp.rect(p.subset([1]), p.subset([2])))
    assert set(grid) == {"left_cells", "right_cells", "matrix"}
    v = tensor.vector((1, 2), [1, 2])
    assert serialize_value(v) == {"space": [1, 2], "values": ["1", "2"]}
    assert serialize_value([p.subset([1]), 3]) == ["{1}", 3]


def test_serialize_value_rejects_unknown_values():
    with pytest.raises(TypeError):
        serialize_value(object())


def test_product_exhaustive_check_refuses_large_products():
    from balg.algebra import AlgebraError, powerset

    cert = certs.check_finite_completeness(FreeProduct(powerset(1), powerset(2)))
    assert cert.subsets_checked == 15
    with pytest.raises(AlgebraError):
        certs.check_finite_completeness(FreeProduct(powerset(2), powerset(3)))
