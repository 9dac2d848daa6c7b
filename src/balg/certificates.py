"""Completeness certificates.

Two kinds of machine-checkable witness:

* ``exhaustive_complete`` -- every nonempty subset of a small finite algebra
  has a least upper bound, established by walking all subsets against
  upper-bound sets computed directly from the order;
* ``no_supremum`` -- a family with upper bounds but no least one, refuted
  constructively: every proposed upper bound is strictly improved while
  remaining an upper bound.

The two built-in witness families are the even singletons in the
finite-cofinite algebra and the diagonal rectangles in the product of two
finite-cofinite algebras.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations
from math import lcm
from operator import or_
from typing import Sequence

from .algebra import Algebra, AlgebraError, Elem, FINITE_COFINITE, POWERSET, point_index
from .free_product import RectForm
from .expr import serialize_value
from .tensor import AtomVector, random_vector

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
            out["steps"] = [_step_dict(s) for s in self.steps]
        return out


def _step_dict(s: RefuteStep) -> dict:
    return {"upper_bound": serialize_value(s.upper_bound),
            "defect": serialize_value(s.defect),
            "improved": serialize_value(s.improved)}


# -- exhaustive completeness of small finite algebras ---------------------------


def check_finite_completeness(alg: Algebra) -> Certificate:
    """Walk every nonempty subset of a small powerset algebra and verify a
    least upper bound exists (``subset_without_supremum``)."""
    if alg.is_trivial:
        return Certificate("exhaustive_complete", f"{alg.name}: all subsets", (), 1)
    if alg.kind != POWERSET:
        raise AlgebraError("exhaustive completeness requires a finite algebra")
    if alg.atom_count > 4:
        raise AlgebraError("exhaustive completeness capped at 4 atoms")
    count = 1 << alg.atom_count          # elements, as atom bitmasks 0..count-1
    bad = subset_without_supremum(count)
    if bad is not None:
        raise AssertionError(f"subset {bad:#x} has no least upper bound at its join")
    return Certificate("exhaustive_complete", f"{alg.name}: all nonempty subsets",
                       (), (1 << count) - 1)


def subset_without_supremum(count: int) -> int | None:
    """Walk every nonempty subset of the elements 0..count-1, ordered as atom
    bitmasks, and return the first one whose join is not its least upper
    bound (as a bitmask over the elements), or None.

    Upper-bound sets come straight from pairwise order tests, so the walk
    does not assume the join is the supremum; it proves it.
    """
    upset = [sum(1 << b for b in range(count) if x & b == x) for x in range(count)]
    return first_subset_without_supremum(upset)


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


def check_model_dedekind_complete(dim: int, rng: random.Random) -> dict:
    """Bounded-set suprema in the atom-coordinate model of dimension dim.

    Exhausts all nonempty subsets of a base family and samples 100 random
    bounded families: through dimension 3 the base family is every component
    (0/1 vector); above that the components are too many to exhaust, so the
    base family is the indicators with the unit.  Each family is checked on
    integer coordinates: its vectors scaled by the lcm of their denominators,
    which preserves the order exactly (the base family is 0/1 already).  The
    coordinatewise max of the rows is checked to be an upper bound attained
    coordinatewise by members, which makes it the least upper bound exactly.
    """
    if not 0 <= dim <= 9:
        raise AlgebraError("model exhaustion needs a dimension from 0 to 9")
    space = tuple(range(1, dim + 1))
    if dim <= 3:
        comps = [tuple(b >> i & 1 for i in range(dim)) for b in range(1 << dim)]
    else:
        comps = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
        comps.append((1,) * dim)
    random_families = (_integer_rows([random_vector(space, rng)
                                      for _ in range(rng.randint(1, 5))])
                       for _ in range(100))
    base_families = (sub for r in range(1, len(comps) + 1) for sub in combinations(comps, r))
    for families, rows in enumerate(chain(base_families, random_families), 1):
        if not _is_least_upper_bound(rows, tuple(map(max, zip(*rows)))):
            return {"ok": False, "dimension": dim, "families_checked": families}
    return {"ok": True, "dimension": dim, "families_checked": families}


def _integer_rows(family: list[AtomVector]) -> list[tuple[int, ...]]:
    """The family's coordinates scaled by the lcm of their denominators."""
    scale = lcm(*(a.denominator for v in family for a in v.values))
    return [tuple(a.numerator * (scale // a.denominator) for a in v.values) for v in family]


def _is_least_upper_bound(rows, candidate: tuple[int, ...]) -> bool:
    """Every row is coordinatewise at most ``candidate``, and each coordinate
    of ``candidate`` is attained by some row, so every upper bound of the
    rows dominates it."""
    return (all(a <= c for row in rows for a, c in zip(row, candidate))
            and all(any(row[i] == c for row in rows) for i, c in enumerate(candidate)))


# -- the even-singleton refuter --------------------------------------------------


def improve_upper_bound_evens(u: Elem) -> RefuteStep | NotUpperBound:
    """One refutation step against the even singletons.

    A finite set misses some even number outright.  A cofinite set that
    excludes an even number is not an upper bound either; otherwise it still
    contains some odd number (smallest taken), and removing that odd point
    gives a strictly smaller upper bound.
    """
    alg = u.alg
    if alg.kind != FINITE_COFINITE:
        raise AlgebraError("the even-singleton family lives in finite_cofinite")
    mode, support = u.data
    if mode == "fin":
        e = 0
        while e in support:
            e += 2
        return NotUpperBound(e)
    excluded_evens = [k for k in support if k % 2 == 0]
    if excluded_evens:
        return NotUpperBound(min(excluded_evens))
    k = 1
    while k in support:
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
    fp = u.fp
    if fp.left.kind != FINITE_COFINITE or fp.right.kind != FINITE_COFINITE:
        raise AlgebraError("the diagonal family lives over two finite_cofinite factors")
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
    improved = u & ~fp.rect(fp.left.fin([m]), fp.right.fin([m2]))
    return RefuteStep(u, (m, m2), improved)


def no_supremum_certificate(family: str, start, steps: int = 3):
    """Iterate a refuter into a strict improvement chain.

    Returns a Certificate, or a NotUpperBound verdict when the start fails
    the upper-bound test.
    """
    refute = {EVENS_FAMILY: improve_upper_bound_evens,
              DIAGONAL_FAMILY: improve_upper_bound_diagonal}[family]
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
