"""Completeness certificates.

Two kinds of machine-checkable witness:

* ``exhaustive_complete`` -- every nonempty subset of a small finite algebra
  has a least upper bound, established by walking all subsets against
  upper-bound sets computed from the algebra's own ``leq``;
* ``no_supremum`` -- a family with upper bounds but no least one, refuted
  constructively: every proposed upper bound is strictly improved while
  remaining an upper bound.

On the Riesz side, ``check_model_dedekind_complete`` samples bounded
suprema in the place-function spaces of P(n) and P(n) (x) P(m).

The two built-in witness families are the even singletons in the
finite-cofinite algebra and the diagonal rectangles in the product of two
finite-cofinite algebras.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Sequence

from .algebra import Algebra, AlgebraError, Elem, FINITE_COFINITE, POWERSET, point_index
from .free_product import RectForm
from .expr import serialize_value
from . import places, tensor

EVENS_FAMILY = "singletons of even naturals in finite_cofinite"
DIAGONAL_FAMILY = "diagonal rectangles fin{n} x fin{n} in finite_cofinite (x) finite_cofinite"


@dataclass(frozen=True, slots=True)
class RefuteStep:
    """One improvement: a strictly smaller element that stays an upper bound."""

    upper_bound: object
    defect: object
    improved: object


@dataclass(frozen=True, slots=True)
class NotUpperBound:
    """The proposed element misses a family member."""

    witness: object


@dataclass(frozen=True, slots=True)
class Certificate:
    kind: str  # "exhaustive_complete" | "no_supremum"
    family: str
    steps: tuple[RefuteStep, ...] = ()
    subsets_checked: int = 0

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "family": self.family}
        if self.kind == "exhaustive_complete":
            out["subsets_checked"] = self.subsets_checked
        else:
            out["steps"] = steps = []
            previous, written = None, None
            for s in self.steps:
                # a chain passes each improved bound on as the next step's
                # bound, so that bound is written once and copied
                bound = (_copy_bound(written) if s.upper_bound is previous
                         else serialize_value(s.upper_bound))
                written = serialize_value(s.improved)
                steps.append({"upper_bound": bound, "defect": serialize_value(s.defect),
                              "improved": written})
                previous = s.improved
        return out


def _copy_bound(written):
    """A second report copy of a written bound, sharing no list or dict with
    it: a string as it is, and a grid dict, in the form ``grid_dict``
    writes, with fresh cell lists and rows."""
    if isinstance(written, str):
        return written
    return {"left_cells": written["left_cells"].copy(),
            "right_cells": written["right_cells"].copy(),
            "matrix": [row.copy() for row in written["matrix"]]}


# -- exhaustive completeness of small finite algebras ---------------------------


def check_finite_completeness(backend) -> Certificate:
    """Walk every nonempty subset of a small finite backend, P(n) or
    P(n) (x) P(m) of at most 4 atoms, and verify that it has a least upper
    bound in the backend's own order.

    ``backend.elements()`` comes in atom-mask order, so a subset's join
    sits at the OR of its members' indices; the up-set table handed to
    ``first_subset_without_supremum`` is read off ``leq`` alone, so the walk
    does not assume the join is the supremum; it proves it.
    """
    if backend.is_trivial:
        return Certificate("exhaustive_complete", f"{backend.name}: all subsets", (), 1)
    if isinstance(backend, Algebra) and backend.kind != POWERSET:
        raise AlgebraError("exhaustive completeness requires a finite algebra")
    if backend.atom_count > 4:
        raise AlgebraError("exhaustive completeness capped at 4 atoms")
    elems = list(backend.elements())
    if len(set(elems)) != len(elems):
        raise AssertionError("the element enumeration repeats an element")
    upset = [sum(1 << b for b, y in enumerate(elems) if x.leq(y)) for x in elems]
    bad = first_subset_without_supremum(upset)
    if bad is not None:
        raise AssertionError(f"subset {bad:#x} has no least upper bound at its join")
    return Certificate("exhaustive_complete", f"{backend.name}: all nonempty subsets",
                       (), (1 << len(elems)) - 1)


def first_subset_without_supremum(upset: Sequence[int]) -> int | None:
    """The least nonempty subset s of the elements 0..count-1 (count =
    ``len(upset)``) whose bitwise-OR join j is not its least upper bound under
    the order ``upset``, where ``upset[x] >> b & 1`` says x <= b; or None.

    s fails when j is no upper bound of s, or some upper bound b of s has
    j <= b false.  Every subset is checked at once: a family of subsets is
    one integer with bit s standing for subset s, so each step below is one
    big-integer operation over all 2^count subsets.
    """
    count = len(upset)
    nsets = 1 << count
    full = (1 << nsets) - 1  # every subset
    # holds[x]: the subsets holding x, the bit pattern of period 2^(x+1)
    # whose upper half is set, widened by doubling shifts
    holds = []
    for x in range(count):
        width = 1 << x
        pattern, period = ((1 << width) - 1) << width, 2 * width
        while period < nsets:
            pattern |= pattern << period
            period *= 2
        holds.append(pattern)
    # bounded[b]: the subsets all of whose members are below b
    bounded = [full ^ reduce(or_, (holds[x] for x in range(count) if not upset[x] >> b & 1), 0)
               for b in range(count)]
    # by_join[j]: the subsets whose join is j, one intersection per atom bit
    by_join = [full]
    for t in range((count - 1).bit_length()):
        has = reduce(or_, (holds[x] for x in range(count) if x >> t & 1), 0)
        by_join = [f & ~has for f in by_join] + [f & has for f in by_join]
    bad = 0
    for j, subsets in enumerate(by_join):
        if j >= count:  # the join is no element at all
            bad |= subsets
            continue
        wrong = reduce(or_, (bounded[b] for b in range(count) if not upset[j] >> b & 1),
                       full ^ bounded[j])
        bad |= subsets & wrong
    bad &= ~1  # the empty subset is not walked
    return (bad & -bad).bit_length() - 1 if bad else None


def check_model_dedekind_complete(backend, rng: random.Random, trials: int) -> dict:
    """Bounded suprema in the place-function space of P(n) or P(n) (x) P(m),
    on ``trials`` random families of 1-4 place functions.

    The supremum ``places.join`` gives must bound every member in
    ``places.leq``, and each of its atom coordinates (``tensor.to_atom_model``)
    must be some member's coordinate there, so every upper bound of the family
    dominates it.  A backend with no finite atom model raises AlgebraError.
    """
    if trials < 1:
        raise AlgebraError("the model check needs at least one family")
    for families in range(1, trials + 1):
        family = [places.random_place(backend, rng) for _ in range(rng.randint(1, 4))]
        # the first member joins itself too, so one-member families use join
        sup = reduce(places.join, family, family[0])
        columns = zip(*(tensor.to_atom_model(f).values for f in family))
        if not (all(places.leq(f, sup) for f in family)
                and all(c in column
                        for c, column in zip(tensor.to_atom_model(sup).values, columns))):
            return {"ok": False, "families_checked": families}
    return {"ok": True, "families_checked": trials}


# -- the even-singleton refuter --------------------------------------------------


def improve_upper_bound_evens(u: Elem) -> RefuteStep | NotUpperBound:
    """One refutation step against the even singletons.

    A finite set misses some even number outright.  A cofinite set that
    excludes an even number is not an upper bound either; otherwise it still
    contains some odd number (smallest taken), and removing that odd point
    gives a strictly smaller upper bound.
    """
    if not isinstance(u, Elem) or u.alg.kind != FINITE_COFINITE:
        raise AlgebraError("the even-singleton family lives in finite_cofinite")
    alg = u.alg
    mode, support = u.data
    named = set(support)
    if mode == "fin":
        e = 0
        while e in named:
            e += 2
        return NotUpperBound(e)
    excluded_evens = [k for k in support if k % 2 == 0]
    if excluded_evens:
        return NotUpperBound(min(excluded_evens))
    k = 1
    while k in named:
        k += 2
    improved = u & ~alg.fin([k])
    return RefuteStep(u, k, improved)


def improve_upper_bound_diagonal(u: RectForm) -> RefuteStep | NotUpperBound:
    """One refutation step against the diagonal rectangles.

    An upper bound must contain every point (n, n): the cofinite-by-cofinite
    grid entry must be active and the finitely many exceptional diagonal
    points must each lie inside.  If so, the smallest off-diagonal point with
    both coordinates in the cofinite cells is removed; the result is strictly
    smaller and still contains the whole diagonal.
    """
    if (not isinstance(u, RectForm) or u.fp.left.kind != FINITE_COFINITE
            or u.fp.right.kind != FINITE_COFINITE):
        raise AlgebraError("the diagonal family lives over two finite_cofinite factors")
    fp = u.fp
    lidx, ltail = point_index(fp.left, u.left_cells)
    ridx, rtail = point_index(fp.right, u.right_cells)
    # every natural named on neither axis lies in the two cof cells, so the
    # least of them settles the whole tail; the named ones are checked one
    # by one, and the least point that fails is the one a sweep finds first
    named = lidx.keys() | ridx.keys()
    unnamed = 0
    while unnamed in named:
        unnamed += 1
    for n in sorted(named | {unnamed}):
        if not u.rows[lidx.get(n, ltail)] >> ridx.get(n, rtail) & 1:
            return NotUpperBound((n, n))
    m = 0
    while m in lidx:
        m += 1
    m2 = 0
    while m2 in ridx or m2 == m:
        m2 += 1
    # (m, m2) lies in the active tail x tail entry; cutting it splits fin{m}
    # off the left tail and fin{m2} off the right tail.  Each row copies its
    # tail bit into the new column, and the new row is the tail row without
    # the new column.  The new row differs from every other row at the new
    # column or the tail column, and the new column from every other column
    # likewise, so the grid is canonical as built.
    L, p = _split_tail(fp.left, u.left_cells, ltail, m)
    R, q = _split_tail(fp.right, u.right_cells, rtail, m2)
    low = (1 << q) - 1
    rows = [row & low | (row >> q) << (q + 1) | (row >> rtail & 1) << q for row in u.rows]
    rows.insert(p, rows[ltail] & ~(1 << q))
    return RefuteStep(u, (m, m2), RectForm(fp, L, R, tuple(rows)))


def _split_tail(alg: Algebra, cells: tuple[Elem, ...], tail: int, n: int):
    """The cells of a canonical finite_cofinite axis with the unnamed natural
    n split off its cof cell, and the index of the new cell fin{n}.

    The fin cells come before the tail, in order of their least members, so
    fin{n} goes where n falls among those.
    """
    _, left_out = cells[tail].data
    split = list(cells)
    split[tail] = Elem(alg, ("cof", tuple(sorted((*left_out, n)))))
    p = bisect_left(cells, n, hi=tail, key=lambda c: c.data[1][0])
    split.insert(p, Elem(alg, ("fin", (n,))))
    return tuple(split), p


def no_supremum_certificate(family: str, start, steps: int = 3):
    """Iterate a refuter into a strict improvement chain.

    Returns a Certificate, or a NotUpperBound verdict when the start fails
    the upper-bound test.  Raises AlgebraError for an unknown family, fewer
    than one step, or a start outside the family's algebra.
    """
    refute = {EVENS_FAMILY: improve_upper_bound_evens,
              DIAGONAL_FAMILY: improve_upper_bound_diagonal}.get(family)
    if refute is None:
        raise AlgebraError(f"no refuter for the family {family!r}")
    if type(steps) is not int or steps < 1:
        raise AlgebraError(f"a chain needs an int number of steps >= 1, got {steps!r}")
    chain = []
    u = start
    for _ in range(steps):
        outcome = refute(u)
        if isinstance(outcome, NotUpperBound):
            if chain:
                raise AssertionError("an improved bound stopped being an upper bound")
            return outcome
        chain.append(outcome)
        u = outcome.improved
    return Certificate("no_supremum", family, tuple(chain))
