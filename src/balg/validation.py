"""Independent revalidation of emitted certificates.

An exhaustive completeness verdict is redone from its subset count alone:
the count fixes the powerset P(n), whose elements are built as sets of
atoms, and every nonempty family of them is walked with its upper bounds
kept as an explicit set, which must hold exactly one least member.

A no-supremum certificate is reparsed and every improvement step rechecked:
strict order decrease, chain continuity, and preserved upper-bound status.
The upper-bound predicates check membership at the points that decide the
bound, ``points.decisive``: each natural some cell support names, and the
tail point, which stands for every natural named nowhere.  Every verdict is
read by ``points.holds`` off the cells' own supports, apart from the cell
logic the certificate generators use; only the element substrate (algebra
operations and the expression grammar) is shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebra import Elem, finite_cofinite
from .certificates import DIAGONAL_FAMILY, EVENS_FAMILY
from .expr import booleans_only, parse_element, rectform_from_grid
from .free_product import FreeProduct, RectForm
from . import points
from .points import TAIL


@dataclass(frozen=True, slots=True)
class ValidationResult:
    ok: bool
    detail: str
    steps_checked: int = 0


def _evens_upper_bound(u: Elem) -> bool:
    """Pointwise: u holds each even decisive point, and TAIL."""
    pts = [p for p in points.decisive(u.alg, (u,)) if p is TAIL or not p & 1]
    return all(points.holds(u, pts))


def _diagonal_upper_bound(u: RectForm) -> bool:
    """Pointwise: u holds (p, p) at each point p that decides its cells."""
    pts = points.decisive(u.fp.left, u.left_cells + u.right_cells)
    return all(points.holds(u, [(p, p) for p in pts]))


EXHAUSTIVE_MAX_ATOMS = 4


def _below(x: frozenset, y: frozenset) -> bool:
    """The order of P(n) on elements written as sets of atoms."""
    return x <= y


def _validate_exhaustive(subsets) -> ValidationResult:
    """Walk every nonempty family of elements of the P(n) whose nonempty
    families number ``subsets``; each must have exactly one least upper
    bound."""
    n = next((n for n in range(EXHAUSTIVE_MAX_ATOMS + 1)
              if type(subsets) is int and subsets == 2 ** 2 ** n - 1), None)
    if n is None:
        return ValidationResult(False, f"subsets_checked {subsets!r} is not 2^(2^n) - 1 "
                                       f"for any n from 0 to {EXHAUSTIVE_MAX_ATOMS}")
    elems = [frozenset(c) for k in range(n + 1) for c in combinations(range(1, n + 1), k)]
    above = {x: frozenset(y for y in elems if _below(x, y)) for x in elems}
    walked = 0
    # each entry: the index past a family's last member, and the family's
    # upper bounds; a family grows by members of larger index only
    stack = [(0, frozenset(elems))]
    while stack:
        start, bounds = stack.pop()
        for i in range(start, len(elems)):
            ubs = bounds & above[elems[i]]
            walked += 1
            if sum(1 for u in ubs if ubs <= above[u]) != 1:
                return ValidationResult(False, f"a family of P({n}) has no single "
                                               "least upper bound")
            stack.append((i + 1, ubs))
    return ValidationResult(True, f"{walked} families of P({n}) walked")


def validate_certificate(payload: dict) -> ValidationResult:
    """Recheck a serialized certificate: an exhaustive verdict by redoing
    its walk, a no-supremum chain step by step.  A payload, step list or step
    of the wrong shape fails; a malformed grid or element raises ExprError."""
    if not isinstance(payload, dict):
        return ValidationResult(False, "a certificate is a JSON object")
    kind = payload.get("kind")
    if kind == "exhaustive_complete":
        return _validate_exhaustive(payload.get("subsets_checked"))
    if kind != "no_supremum":
        return ValidationResult(False, f"unknown certificate kind {kind!r}")
    family = payload.get("family")
    steps = payload.get("steps", [])
    if not steps:
        return ValidationResult(False, "no_supremum certificate without steps")
    if not isinstance(steps, list):
        return ValidationResult(False, "no_supremum steps are not a list")
    if family == EVENS_FAMILY:
        alg = finite_cofinite()
        parse = lambda s: parse_element(alg, s)  # noqa: E731
        is_upper = _evens_upper_bound
    elif family == DIAGONAL_FAMILY:
        fp = FreeProduct(finite_cofinite(), finite_cofinite())
        parse = lambda s: rectform_from_grid(fp, s)  # noqa: E731
        is_upper = _diagonal_upper_bound
    else:
        return ValidationResult(False, f"unknown witness family {family!r}")
    previous_written, previous_improved = None, None
    for k, step in enumerate(steps):
        if not (isinstance(step, dict) and "upper_bound" in step and "improved" in step):
            return ValidationResult(False, f"step {k}: not an object with both bounds", k)
        bound = step["upper_bound"]
        # a bound written as the previous improvement was parsed, and found an
        # upper bound, one step ago: reading it again gives the same value and
        # verdict (a grid's entries must still be booleans, as ``==`` takes 1)
        reused = (previous_improved is not None and bound == previous_written
                  and (not isinstance(bound, dict) or booleans_only(bound["matrix"])))
        u = previous_improved if reused else parse(bound)
        written = step["improved"]
        improved = parse(written)
        if previous_improved is not None and u != previous_improved:
            return ValidationResult(False, f"step {k}: chain broken", k)
        if not reused and not is_upper(u):
            return ValidationResult(False, f"step {k}: start is not an upper bound", k)
        if not improved.leq(u) or improved == u:
            return ValidationResult(False, f"step {k}: no strict decrease", k)
        if not is_upper(improved):
            return ValidationResult(False, f"step {k}: improvement loses the bound", k)
        previous_written, previous_improved = written, improved
    return ValidationResult(True, "all steps revalidated", len(steps))
