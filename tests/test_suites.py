import hashlib
import json
from pathlib import Path

import pytest

from balg import bands
from balg.config import default_config, parse_config
from balg.suites import SUITES, Report, run_suites, serialize_value, suite_rng


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


def test_negative_control_fixture_fails_suite():
    # wiring the broken bimorphism in as the map under test must flip the
    # suite to fail, with the counterexample serialized
    cfg = light_config(["tensor_iso"])
    outcome = SUITES["tensor_iso"](cfg, suite_rng(cfg.seed, "tensor_iso"))
    assert outcome.ok
    broken = SUITES["tensor_iso"](cfg, suite_rng(cfg.seed, "tensor_iso"),
                                  break_bimorphism=True)
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
# configs/default.json at trials 15; a change that alters report bytes on
# purpose updates these digests and says which fields changed
REPORT_DIGESTS = {
    0: "85d6c05eb2151035ffeec1a7c6a16b11d6da6d7924cd1b533c8b32ebbb2f1852",
    1: "c10e7b123acd85634c51645376636e994306c97ae9cf5bac1322b350dcf1a857",
}


@pytest.mark.parametrize("seed", sorted(REPORT_DIGESTS))
def test_report_bytes_are_pinned(seed):
    path = Path(__file__).resolve().parent.parent / "configs" / "default.json"
    base = json.loads(path.read_text(encoding="utf-8"))
    report = run_suites(parse_config(json.dumps({**base, "trials": 15, "seed": seed})))
    d = report.to_dict()
    for s in d["suites"]:
        s["seconds"] = 0
    text = json.dumps(d, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[seed]


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
    from balg.algebra import AlgebraError
    from balg.suites import _product_exhaustively_complete

    assert _product_exhaustively_complete(1, 2)
    with pytest.raises(AlgebraError):
        _product_exhaustively_complete(2, 3)
