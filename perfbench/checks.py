"""Independent checks of benchmark outputs.

Nothing here imports ``balg``: cells are read back from their text form and
membership is decided point by point, so a wrong answer from the program
cannot be confirmed by the same code that produced it.
"""

from __future__ import annotations

import json
import re

GENERIC = None  # a natural past every natural named in the element
_CELL = re.compile(r"(fin|cof)\{(\d+(?:,\d+)*)?\}")


class CheckFailed(AssertionError):
    """An output disagrees with what the benchmark computed itself."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- finite-cofinite cells --------------------------------------------------------


def parse_cell(text: str) -> tuple[bool, frozenset]:
    """(is_cofinite, support) of a finite-cofinite element in text form."""
    if text == "0":
        return False, frozenset()
    if text == "1":
        return True, frozenset()
    m = _CELL.fullmatch(text)
    _require(m is not None, f"unreadable finite-cofinite text {text!r}")
    body = m.group(2)
    support = frozenset(int(n) for n in body.split(",")) if body else frozenset()
    return m.group(1) == "cof", support


def member(cell: tuple[bool, frozenset], n) -> bool:
    cofinite, support = cell
    if n is GENERIC:
        return cofinite
    return (n not in support) if cofinite else (n in support)


# -- even singletons in fincof ------------------------------------------------------


def evens_defects(start: frozenset, length: int) -> list[int]:
    """The first ``length`` odd naturals not in ``start``."""
    out, k = [], 1
    while len(out) < length:
        if k not in start:
            out.append(k)
        k += 2
    return out


def check_evens_chain(start: frozenset, length: int, payload: dict) -> None:
    """After step i the bound is cof(start + the first i odd naturals not in
    start); each step removes the next of those odd naturals."""
    steps = payload["steps"]
    _require(len(steps) == length, f"chain has {len(steps)} steps, want {length}")
    defects = evens_defects(start, length)
    excluded = set(start)
    for i, step in enumerate(steps):
        _require(parse_cell(step["upper_bound"]) == (True, frozenset(excluded)),
                 f"step {i}: bound {step['upper_bound']!r} is not cof{sorted(excluded)}")
        _require(step["defect"] == defects[i],
                 f"step {i}: defect {step['defect']!r}, want {defects[i]}")
        excluded.add(defects[i])
        _require(parse_cell(step["improved"]) == (True, frozenset(excluded)),
                 f"step {i}: improved {step['improved']!r} is not cof{sorted(excluded)}")


# -- diagonal rectangles in fincof (x) fincof ------------------------------------------


def _cell_index(cells: list, n, side: str) -> int:
    hits = [i for i, c in enumerate(cells) if member(c, n)]
    _require(len(hits) == 1, f"{side} cells do not partition the naturals at {n}")
    return hits[0]


def grid_rows(grid: dict, points: list) -> list[int]:
    """For each point p, the bitmask over ``points`` of the q with (p, q) in
    the element, read from its cells and activity matrix."""
    left = [parse_cell(t) for t in grid["left_cells"]]
    right = [parse_cell(t) for t in grid["right_cells"]]
    matrix = grid["matrix"]
    _require(len(matrix) == len(left) and all(len(r) == len(right) for r in matrix),
             "activity matrix does not match the cells")
    colmask = [0] * len(right)
    for b, q in enumerate(points):
        colmask[_cell_index(right, q, "right")] |= 1 << b
    rowset = []
    for row in matrix:
        m = 0
        for j, active in enumerate(row):
            if active:
                m |= colmask[j]
        rowset.append(m)
    return [rowset[_cell_index(left, p, "left")] for p in points]


def check_unit_minus(grid: dict, removed: set) -> None:
    """The element is the unit minus exactly the points in ``removed``.

    Checked at every point of [0..H]^2, where H lies past every natural
    named in the cells or in ``removed``, and at the generic tail points."""
    named = [0]
    for text in grid["left_cells"] + grid["right_cells"]:
        named.extend(parse_cell(text)[1])
    for p, q in removed:
        named += [p, q]
    horizon = max(named) + 1
    points = list(range(horizon + 1)) + [GENERIC]
    full = (1 << len(points)) - 1
    want = [full] * len(points)
    for p, q in removed:
        want[p] &= ~(1 << q)
    got = grid_rows(grid, points)
    for i, p in enumerate(points):
        if got[i] != want[i]:
            q = (got[i] ^ want[i]).bit_length() - 1
            raise CheckFailed(f"point ({p}, {points[q]}) membership is "
                              f"{bool(got[i] >> q & 1)}, want {bool(want[i] >> q & 1)}")


def check_diagonal_chain(holes: list[tuple[int, int]], length: int, payload: dict) -> None:
    """Every bound is the unit minus the start's holes and the defects removed
    so far; every defect is off the diagonal and newly removed."""
    steps = payload["steps"]
    _require(len(steps) == length, f"chain has {len(steps)} steps, want {length}")
    removed = set(holes)
    _require(all(p != q for p, q in removed), "a start hole lies on the diagonal")
    check_unit_minus(steps[0]["upper_bound"], removed)
    for i, step in enumerate(steps):
        if i:
            _require(step["upper_bound"] == steps[i - 1]["improved"],
                     f"step {i}: chain broken")
        d = tuple(step["defect"])
        _require(len(d) == 2 and d[0] != d[1], f"step {i}: defect {d} is on the diagonal")
        _require(d not in removed, f"step {i}: defect {d} was already removed")
        removed.add(d)
        check_unit_minus(step["improved"], removed)


def check_validation(result, length: int) -> None:
    """``validate_certificate`` accepted the chain, step for step."""
    _require(result.ok, f"revalidation rejected the chain: {result.detail}")
    _require(result.steps_checked == length,
             f"revalidation checked {result.steps_checked} of {length} steps")


# -- verify reports -------------------------------------------------------------------


def timeless(report: dict) -> str:
    """The report as canonical text without its timing fields."""
    suites = [{k: v for k, v in s.items() if k != "seconds"} for s in report["suites"]]
    return json.dumps({**report, "suites": suites}, sort_keys=True)


def check_verify_report(report: dict, suite: str, config: dict, validate) -> None:
    """Checks one single-suite report against the config it was run from.

    Every verdict passes; each tensor_iso rank note of the pairing (A, B) is
    atoms(A) * atoms(B); each exhaustive subset count over n atoms is
    2^(2^n) - 1; each no-supremum chain revalidates in full and satisfies the
    chain checks above.  ``validate`` is the program's certificate validator.
    """
    entries = report["suites"]
    _require([e["name"] for e in entries] == [suite], f"report covers {entries!r}")
    entry = entries[0]
    _require(entry["verdict"] == "pass", f"{suite} verdict {entry['verdict']!r}: "
             f"{entry['witnesses']!r}")
    atoms = {a["name"]: a["atoms"] for a in config["algebras"]
             if a["kind"] == "powerset" and not a.get("trivial")}
    if suite == "tensor_iso":
        want = {f"{a} (x) {b}: rank": atoms[a] * atoms[b]
                for a in atoms for b in atoms if atoms[a] * atoms[b] <= 16}
        got = {w["note"]: w for w in entry["witnesses"]
               if w.get("note", "").endswith(": rank")}
        _require(set(got) == set(want), f"rank notes {sorted(got)}, want {sorted(want)}")
        for label, nm in want.items():
            _require(got[label]["rank"] == nm and got[label]["dimension"] == nm,
                     f"{label}: {got[label]!r}, want rank {nm}")
    if suite == "completeness":
        cap = config.get("caps", {}).get("max_subset_enum", 4)  # the schema's default
        small = {a: n for a, n in atoms.items() if n <= cap}
        counts = {e["algebra"]: e["subsets_checked"]
                  for e in entry["certificate"]["exhaustive"] if e["algebra"] in atoms}
        _require(set(counts) == set(small), f"exhaustive entries {sorted(counts)}")
        for a, n in small.items():
            _require(counts[a] == (1 << (1 << n)) - 1,
                     f"{a}: {counts[a]} subsets checked, want {(1 << (1 << n)) - 1}")
        chains = entry["certificate"]["certificates"]
        _require(set(chains) == {"evens", "diagonal"}, f"certificates {sorted(chains)}")
        for kind, payload in chains.items():
            length = len(payload["steps"])
            _require(length >= 1, f"{kind} certificate has no steps")
            check_validation(validate(payload), length)
            if kind == "evens":
                check_evens_chain(frozenset(), length, payload)
            else:
                check_diagonal_chain([], length, payload)
