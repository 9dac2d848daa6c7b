"""The independent checks accept real outputs and reject wrong ones."""

import copy
import json
from collections import namedtuple

import pytest

import checks
from checks import CheckFailed

Validated = namedtuple("Validated", "ok detail steps_checked")


# -- evens -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def evens_chain(balg):
    fc = balg.algebra.finite_cofinite()
    cert = balg.certificates.no_supremum_certificate(
        balg.certificates.EVENS_FAMILY, fc.cof([3, 11]), steps=5)
    return cert.to_dict()


def test_evens_defects_skip_the_start_set():
    assert checks.evens_defects(frozenset({3, 11}), 6) == [1, 5, 7, 9, 13, 15]


def test_evens_accepts_the_real_chain(evens_chain):
    checks.check_evens_chain(frozenset({3, 11}), 5, evens_chain)


@pytest.mark.parametrize("step, field, wrong", [
    (2, "improved", "cof{1,3,5,7,9,11}"),   # removes two points at once
    (2, "improved", "cof{1,3,5,11}"),       # removes nothing
    (0, "upper_bound", "1"),                # forgets the start set
    (1, "defect", 4),                       # an even defect
    (3, "defect", 11),                      # an odd already excluded
    (4, "improved", "fin{1,3,5,7,9,11,13}"),  # finite, not cofinite
])
def test_evens_rejects_a_wrong_step(evens_chain, step, field, wrong):
    bad = copy.deepcopy(evens_chain)
    bad["steps"][step][field] = wrong
    with pytest.raises(CheckFailed):
        checks.check_evens_chain(frozenset({3, 11}), 5, bad)


def test_evens_rejects_a_short_chain(evens_chain):
    bad = copy.deepcopy(evens_chain)
    bad["steps"].pop()
    with pytest.raises(CheckFailed):
        checks.check_evens_chain(frozenset({3, 11}), 5, bad)


# -- diagonal -----------------------------------------------------------------------

HOLES = [(0, 3), (5, 2)]


@pytest.fixture(scope="module")
def diagonal_chain(balg):
    fc = balg.algebra.finite_cofinite()
    fp = balg.free_product.FreeProduct(fc, fc)
    start = balg.expr.parse_element(fp, "1 & !rect(fin{0},fin{3}) & !rect(fin{5},fin{2})")
    cert = balg.certificates.no_supremum_certificate(
        balg.certificates.DIAGONAL_FAMILY, start, steps=4)
    return cert.to_dict()


def test_diagonal_accepts_the_real_chain(diagonal_chain):
    checks.check_diagonal_chain(HOLES, 4, diagonal_chain)


def test_diagonal_rejects_a_flipped_grid_entry(diagonal_chain):
    bad = copy.deepcopy(diagonal_chain)
    matrix = bad["steps"][1]["improved"]["matrix"]
    matrix[0][0] = not matrix[0][0]
    with pytest.raises(CheckFailed, match="membership"):
        checks.check_diagonal_chain(HOLES, 4, bad)


def test_diagonal_rejects_a_missing_tail(diagonal_chain):
    bad = copy.deepcopy(diagonal_chain)
    grid = bad["steps"][3]["improved"]
    grid["matrix"][-1][-1] = False  # the cofinite-by-cofinite block
    with pytest.raises(CheckFailed):
        checks.check_diagonal_chain(HOLES, 4, bad)


def test_diagonal_rejects_a_defect_on_the_diagonal(diagonal_chain):
    bad = copy.deepcopy(diagonal_chain)
    bad["steps"][0]["defect"] = [2, 2]
    with pytest.raises(CheckFailed, match="on the diagonal"):
        checks.check_diagonal_chain(HOLES, 4, bad)


def test_diagonal_rejects_a_repeated_defect(diagonal_chain):
    bad = copy.deepcopy(diagonal_chain)
    bad["steps"][2]["defect"] = bad["steps"][1]["defect"]
    with pytest.raises(CheckFailed, match="already removed"):
        checks.check_diagonal_chain(HOLES, 4, bad)


def test_diagonal_rejects_a_defect_that_was_a_start_hole(diagonal_chain):
    bad = copy.deepcopy(diagonal_chain)
    bad["steps"][0]["defect"] = [5, 2]
    with pytest.raises(CheckFailed, match="already removed"):
        checks.check_diagonal_chain(HOLES, 4, bad)


def test_diagonal_rejects_a_start_that_ignores_a_hole(diagonal_chain):
    with pytest.raises(CheckFailed):
        checks.check_diagonal_chain(HOLES + [(7, 1)], 4, diagonal_chain)


def test_diagonal_rejects_overlapping_cells(diagonal_chain):
    bad = copy.deepcopy(diagonal_chain)
    bad["steps"][1]["improved"]["left_cells"][0] = "1"
    with pytest.raises(CheckFailed, match="partition"):
        checks.check_diagonal_chain(HOLES, 4, bad)


def test_diagonal_rejects_a_broken_chain(diagonal_chain):
    bad = copy.deepcopy(diagonal_chain)
    bad["steps"][2]["upper_bound"] = bad["steps"][0]["upper_bound"]
    with pytest.raises(CheckFailed, match="chain broken"):
        checks.check_diagonal_chain(HOLES, 4, bad)


# -- revalidation -------------------------------------------------------------------


def test_validation_must_accept_every_step():
    checks.check_validation(Validated(True, "", 7), 7)
    with pytest.raises(CheckFailed):
        checks.check_validation(Validated(True, "", 6), 7)
    with pytest.raises(CheckFailed):
        checks.check_validation(Validated(False, "step 3: no strict decrease", 3), 7)


# -- verify reports --------------------------------------------------------------------


@pytest.fixture(scope="module")
def config(root):
    return json.loads((root / "configs" / "default.json").read_text())


def _report(balg, config, suite):
    text = json.dumps({**config, "suites": [suite], "trials": 2, "seed": 5})
    report = balg.suites.run_suites(balg.config.parse_config(text))
    return json.loads(json.dumps(report.to_dict()))


@pytest.fixture(scope="module")
def tensor_report(balg, config):
    return _report(balg, config, "tensor_iso")


@pytest.fixture(scope="module")
def completeness_report(balg, config):
    return _report(balg, config, "completeness")


def _check(balg, config, report, suite):
    checks.check_verify_report(report, suite, config,
                               balg.validation.validate_certificate)


def test_verify_accepts_real_reports(balg, config, tensor_report, completeness_report):
    _check(balg, config, tensor_report, "tensor_iso")
    _check(balg, config, completeness_report, "completeness")


def test_verify_rejects_a_failed_verdict(balg, config, tensor_report):
    bad = copy.deepcopy(tensor_report)
    bad["suites"][0]["verdict"] = "fail"
    with pytest.raises(CheckFailed, match="verdict"):
        _check(balg, config, bad, "tensor_iso")


def test_verify_rejects_a_wrong_rank(balg, config, tensor_report):
    bad = copy.deepcopy(tensor_report)
    note = next(w for w in bad["suites"][0]["witnesses"] if w.get("note") == "A (x) B: rank")
    note["rank"] = 5
    with pytest.raises(CheckFailed, match="A \\(x\\) B"):
        _check(balg, config, bad, "tensor_iso")


def test_verify_rejects_a_missing_rank_note(balg, config, tensor_report):
    bad = copy.deepcopy(tensor_report)
    bad["suites"][0]["witnesses"] = [w for w in bad["suites"][0]["witnesses"]
                                     if w.get("note") != "B (x) B: rank"]
    with pytest.raises(CheckFailed, match="rank notes"):
        _check(balg, config, bad, "tensor_iso")


def test_verify_rejects_a_wrong_subset_count(balg, config, completeness_report):
    bad = copy.deepcopy(completeness_report)
    bad["suites"][0]["certificate"]["exhaustive"][1]["subsets_checked"] = 16
    with pytest.raises(CheckFailed, match="subsets checked"):
        _check(balg, config, bad, "completeness")


def test_verify_rejects_a_tampered_certificate(balg, config, completeness_report):
    bad = copy.deepcopy(completeness_report)
    steps = bad["suites"][0]["certificate"]["certificates"]["evens"]["steps"]
    steps[1]["improved"] = steps[1]["upper_bound"]
    with pytest.raises(CheckFailed):
        _check(balg, config, bad, "completeness")


def test_verify_rejects_a_report_for_another_suite(balg, config, tensor_report):
    with pytest.raises(CheckFailed, match="covers"):
        _check(balg, config, tensor_report, "bands")


def test_a_repeated_report_must_match_apart_from_timings(balg, root):
    import workloads

    w = workloads.VerifyDefault(balg, root, 0)
    item = w.inputs[0]
    first = w.run(item)
    w.check(item, first)
    retimed = json.loads(first)
    retimed["suites"][0]["seconds"] += 1.0
    w.check(item, json.dumps(retimed))
    changed = json.loads(first)
    changed["config_echo"]["trials"] += 1
    with pytest.raises(CheckFailed, match="repeated report differs"):
        w.check(item, json.dumps(changed))
