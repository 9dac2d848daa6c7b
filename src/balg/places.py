"""Place functions over a backend algebra.

A place function is a finite rational linear combination of characteristic
elements with pairwise disjoint supports.  The canonical form keeps nonzero,
pairwise distinct coefficients on disjoint nonzero supports, so equivalent
representations canonicalize to structurally identical values and ``==``
decides equality in the space.

Coefficients are exact: an ``int`` (not a ``bool``) or a ``Fraction``;
anything else raises ``AlgebraError``.  Every sum, lattice operation and
order test runs on one cell route: the backend's ``joint_cells`` lays the
supports on cells that partition the unit, each support a join of cells (on
one algebra the points that decide the supports: its atoms, or the named
naturals and the tail; on a free product a common grid), each coefficient
becomes the integer numerator ``c * D`` over the lcm ``D`` of the
coefficients' denominators, cells are summed, compared and taken min or max
of as plain ints, and ``from_cell_values`` builds one ``Fraction(v, D)``
per distinct nonzero value.

Two additions are provided on purpose: ``add_formula`` evaluates the
three-part formula built from pairwise meets and relative complements, and
``add_refine`` sums coefficients cellwise on the joint cells.  The second
is the correctness oracle for the first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .algebra import AlgebraError


@dataclass(frozen=True, slots=True, init=False)
class PlaceFunction:
    """Canonical disjoint-support rational combination of characteristics.

    Built like ``Elem``: ``__init__`` sets each slot once, and it is frozen.
    """

    backend: object
    terms: tuple[tuple[Fraction, object], ...]

    def __init__(self, backend, terms: tuple[tuple[Fraction, object], ...]) -> None:
        _place_backend(self, backend)
        _place_terms(self, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_positive(self) -> bool:
        """Membership in the positive cone (0 included)."""
        return all(c > 0 for c, _ in self.terms)

    def support(self):
        """Join of all term supports."""
        return self.backend.join(x for _, x in self.terms)

    def __add__(self, other: "PlaceFunction") -> "PlaceFunction":
        return add_refine(self, other)

    def __sub__(self, other: "PlaceFunction") -> "PlaceFunction":
        return add_refine(self, scale(Fraction(-1), other))

    def __neg__(self) -> "PlaceFunction":
        return scale(Fraction(-1), self)

    def scale(self, c) -> "PlaceFunction":
        return scale(c, self)

    def meet(self, other: "PlaceFunction") -> "PlaceFunction":
        return meet(self, other)


_place_backend = PlaceFunction.backend.__set__
_place_terms = PlaceFunction.terms.__set__


def zero(backend) -> PlaceFunction:
    return PlaceFunction(backend, ())


def unit(backend) -> PlaceFunction:
    """The strong unit: the characteristic of the backend's unit."""
    return chi(backend.one)


def chi(x) -> PlaceFunction:
    """Characteristic place function of an element."""
    if x.is_zero():
        return PlaceFunction(x.alg, ())
    return PlaceFunction(x.alg, ((Fraction(1), x),))


def canonicalize(backend, raw: Iterable[tuple[Fraction, object]]) -> PlaceFunction:
    """Canonical form of an arbitrary coefficient/support list.

    Supports may overlap and coefficients may repeat or vanish: supports are
    laid on the backend's joint cells, coefficients summed cellwise, zero
    cells dropped, and cells sharing a coefficient merged by joining.
    """
    terms = _live_terms(backend, raw)
    if not terms:
        return PlaceFunction(backend, ())
    payload, masks, ncells = backend.joint_cells([x for _, x in terms])
    d, nums = _common(c for c, _ in terms)
    return from_cell_values(backend, payload, enumerate(_cell_sums(nums, masks, ncells)), d)


def _exact(c):
    """``c`` itself if it is an exact coefficient: an int (not a bool) or a
    Fraction."""
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise AlgebraError(f"a coefficient is an int or a Fraction, not {type(c).__name__}")
    return c


# the coefficient types that need no call of ``_exact``
_EXACT_TYPES = frozenset((int, Fraction))


def _live_terms(backend, raw) -> list:
    """The terms of ``raw`` with a nonzero coefficient and a nonzero
    support.  Every coefficient and every support is checked, zero or under
    a zero coefficient too."""
    terms = []
    for c, x in raw:
        backend._check(x)
        if _exact(c) != 0 and not x.is_zero():
            terms.append((c, x))
    return terms


def _common(coefs) -> tuple[int, list[int]]:
    """The lcm D of the denominators of exact coefficients, and each
    coefficient times D as an int."""
    coefs = list(coefs)
    d = lcm(*(c.denominator for c in coefs))
    return d, [c.numerator * (d // c.denominator) for c in coefs]


def from_cell_values(backend, payload, values, d: int) -> PlaceFunction:
    """Canonical place function from (cell index, integer value) pairs over
    the common denominator ``d``: a cell's coefficient is its value / d.

    Cells sharing a nonzero value become one support, joined from
    ``payload`` by ``backend.join_cells``, under one ``Fraction(value, d)``;
    zero cells are dropped.
    """
    groups: dict[int, int] = {}
    for i, v in values:
        if v:
            groups[v] = groups.get(v, 0) | (1 << i)
    terms = [(Fraction(v, d), backend.join_cells(payload, mask)) for v, mask in groups.items()]
    terms.sort(key=lambda t: backend.sort_key(t[1]))
    return PlaceFunction(backend, tuple(terms))


def _cell_sums(nums, masks, ncells: int) -> list[int]:
    """Per cell, the sum of the integer coefficients whose mask has it."""
    vals = [0] * ncells
    for c, mask in zip(nums, masks):
        while mask:
            low = mask & -mask
            vals[low.bit_length() - 1] += c
            mask ^= low
    return vals


def _match(f: PlaceFunction, g: PlaceFunction) -> None:
    if f.backend != g.backend:
        raise AlgebraError("place functions over different backends")


def add_formula(f: PlaceFunction, g: PlaceFunction) -> PlaceFunction:
    """Sum by the three-part formula.

    Terms (coeff sum, meet) over all support pairs, plus each side's terms on
    the relative complement of its support against the other side's total
    support; terms with vanishing coefficient or zero support are omitted,
    then the result is canonicalized.
    """
    _match(f, g)
    backend = f.backend
    sup_f = f.support()
    sup_g = g.support()
    raw: list[tuple[Fraction, object]] = []
    for lam, x in f.terms:
        for gam, y in g.terms:
            if lam + gam != 0:
                m = x & y
                if not m.is_zero():
                    raw.append((lam + gam, m))
    for lam, x in f.terms:
        r = x.rel_complement(sup_g)
        if not r.is_zero():
            raw.append((lam, r))
    for gam, y in g.terms:
        r = y.rel_complement(sup_f)
        if not r.is_zero():
            raw.append((gam, r))
    return canonicalize(backend, raw)


def add_refine(f: PlaceFunction, g: PlaceFunction) -> PlaceFunction:
    """Sum by cellwise coefficient addition on the joint cells."""
    _match(f, g)
    return canonicalize(f.backend, f.terms + g.terms)


def scale(c, f: PlaceFunction) -> PlaceFunction:
    """c times f; c and every coefficient of f are checked exact."""
    c = Fraction(_exact(c))
    if not _EXACT_TYPES.issuperset(type(ci) for ci, _ in f.terms):
        for ci, _ in f.terms:
            _exact(ci)
    if c == 0:
        return PlaceFunction(f.backend, ())
    # scaling keeps supports, order, distinctness: already canonical
    return PlaceFunction(f.backend, tuple((c * ci, x) for ci, x in f.terms))


def _cell_values(backend, f: PlaceFunction, g: PlaceFunction):
    """The joint cell payload of f and g, their common denominator, and each
    one's integer cell values over it.  The terms skip ``_live_terms``, so
    each coefficient is checked exact here."""
    terms = f.terms + g.terms
    payload, masks, ncells = backend.joint_cells([x for _, x in terms])
    d, nums = _common(_exact(c) for c, _ in terms)
    k = len(f.terms)
    return (payload, d, _cell_sums(nums[:k], masks[:k], ncells),
            _cell_sums(nums[k:], masks[k:], ncells))


def lattice(f: PlaceFunction, g: PlaceFunction, which: str) -> PlaceFunction:
    """Cellwise min or max on the joint cells of both supports.

    The cells cover the whole unit, so the residual region outside both
    supports participates with value zero.
    """
    _match(f, g)
    if which not in ("meet", "join"):
        raise AlgebraError("which must be 'meet' or 'join'")
    backend = f.backend
    op = min if which == "meet" else max
    payload, d, fvals, gvals = _cell_values(backend, f, g)
    return from_cell_values(backend, payload, enumerate(map(op, fvals, gvals)), d)


def meet(f: PlaceFunction, g: PlaceFunction) -> PlaceFunction:
    return lattice(f, g, "meet")


def join(f: PlaceFunction, g: PlaceFunction) -> PlaceFunction:
    return lattice(f, g, "join")


def pos_part(f: PlaceFunction) -> PlaceFunction:
    return join(f, zero(f.backend))


def abs_(f: PlaceFunction) -> PlaceFunction:
    return join(f, zero(f.backend)) - meet(f, zero(f.backend))


def leq(f: PlaceFunction, g: PlaceFunction) -> bool:
    """Pointwise order: f <= g on every joint cell."""
    _match(f, g)
    _, _, fvals, gvals = _cell_values(f.backend, f, g)
    return all(a <= b for a, b in zip(fvals, gvals))


def is_component(f: PlaceFunction) -> bool:
    """Whether f satisfies the component equation f ^ (e - f) = 0 against
    the strong unit e.  Requires f in the positive cone."""
    if not f.is_positive():
        raise AlgebraError("component test requires a positive place function")
    e = unit(f.backend)
    return meet(f, e - f).is_zero()


def as_element(f: PlaceFunction):
    """The backend element x with f = chi(x), or None; every coefficient is
    checked exact."""
    if [_exact(c) for c, _ in f.terms] == [1]:
        return f.terms[0][1]
    return None if f.terms else f.backend.zero


def random_place(backend, rng: random.Random, positive: bool = False) -> PlaceFunction:
    """Up to three random terms (at least one when ``positive``)."""
    raw = []
    for _ in range(rng.randint(0 if not positive else 1, 3)):
        num = rng.randint(1, 4) if positive else rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        coeff = Fraction(num, rng.randint(1, 3))
        raw.append((coeff, backend.random_elem(rng)))
    return canonicalize(backend, raw)


@dataclass(frozen=True, slots=True)
class RegularityCheck:
    ok: bool
    detail: str
    counterexample: PlaceFunction | None = None


def check_regularity(xs: Sequence, s, rng: random.Random | None = None,
                     trials: int = 100) -> RegularityCheck:
    """Verify chi(s) is the least upper bound of {chi(x) : x in xs} in the
    place-function space.

    Requires s to be the join of xs.  chi(s) must dominate every chi(x);
    every sampled upper bound must dominate chi(s); and each constructed
    candidate strictly below chi(s) (chi(s) dented on one joint cell under s,
    a point cell on a single algebra) must fail to be an upper bound.
    """
    if not xs:
        raise AlgebraError("empty family")
    backend = xs[0].alg
    joined = backend.sup(xs)
    if joined != s:
        return RegularityCheck(False, "s is not the join of xs")
    target = chi(s)
    for x in xs:
        if not leq(chi(x), target):
            return RegularityCheck(False, "chi(s) fails to bound a member", chi(x))
    # a candidate below chi(s) dented on any joint cell under s misses some
    # member: every such cell lies under some x in xs
    payload, masks, ncells = backend.joint_cells(list(xs) + [s])
    s_mask = masks[-1]
    for i in range(ncells):
        if not s_mask >> i & 1:
            continue
        cell = backend.join_cells(payload, 1 << i)
        dented = target - scale(Fraction(1, 2), chi(cell))
        if all(leq(chi(x), dented) for x in xs):
            return RegularityCheck(False, "strictly smaller upper bound exists", dented)
    rng = rng or random.Random(0)
    for _ in range(trials):
        g = random_place(backend, rng)
        if all(leq(chi(x), g) for x in xs) and not leq(target, g):
            return RegularityCheck(False, "sampled upper bound below chi(s)", g)
    return RegularityCheck(True, "least upper bound verified")
