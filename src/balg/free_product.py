"""Free product of two backends as a rectangle-normal-form algebra.

An element is a grid: a partition of each coordinate unit into cells plus
an activity matrix saying which cell rectangles lie under it.  The canonical
grid is the coarsest one (no two rows and no two columns coincide), cells in
``sort_key`` order, so structural equality decides mathematical equality.

Every operation except ``~`` and ``normalize`` works cellwise on the flat
masks of ``_joint_cells`` (cell (i, j) of the common grid (L, R) at bit
i * len(R) + j): the common refinement is ``algebra._meets`` of each axis,
each grid's rows spread onto it by ``_runs``, an axis shared by every grid
left as is.  ``normalize`` of one nonzero rectangle a x b gives the grid
(a, ~a) x (b, ~b), canonical as built; several rectangles are laid on the
factors' point cells, ``Algebra.joint_cells``, and ORed into one mask.
``_join_cells`` is the one exit from a grid and a flat mask to a canonical
form; without a table it calls ``_coarsen``, which merges equal rows, then
equal columns, with ``_merge``.  A complemented canonical grid is
canonical.  A product with a trivial factor has one element, the empty
grid.

P(n) (x) P(m) with 0 < n * m <= MAX_ATOMS holds ``_forms``, a table from
atom mask (pair (p, q) at bit p * m + q) to canonical form, filled as masks
are met; there the common grid is the factors' own ``atoms()`` tuples, so
``_joint_cells`` reads each part's mask with ``_grid_mask`` and
``_join_cells`` looks it up.  Only these two read the table.  ``atom_mask``
reads a form through ``point_index`` instead, a second route kept apart
from ``_grid_mask``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, itemgetter, or_, xor
from typing import Iterable, Iterator, Sequence

from .algebra import (Algebra, AlgebraError, Elem, MAX_ATOMS, POWERSET, _meets, point_index,
                      refine_partition)


@dataclass(frozen=True, slots=True, init=False)
class Rectangle:
    """A coordinate rectangle: the meet of the two factor embeddings."""

    left: Elem
    right: Elem

    def __init__(self, left: Elem, right: Elem) -> None:
        _rect_left(self, left)
        _rect_right(self, right)

    def is_zero(self) -> bool:
        return self.left.is_zero() or self.right.is_zero()


@dataclass(frozen=True, slots=True)
class FreeProduct:
    """The free product of two backend algebras.

    It holds its ``zero`` and ``one``, ``is_trivial`` (the product collapses
    to one element iff either factor is trivial) and the table ``_forms``, all
    set once with it; none takes part in equality or ``repr``.
    """

    left: Algebra
    right: Algebra
    zero: "RectForm" = field(init=False, compare=False, repr=False)
    one: "RectForm" = field(init=False, compare=False, repr=False)
    is_trivial: bool = field(init=False, compare=False, repr=False)
    _forms: dict[int, "RectForm"] | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        left, right = self.left, self.right
        trivial = left.is_trivial or right.is_trivial
        object.__setattr__(self, "is_trivial", trivial)
        if trivial:
            zero = one = RectForm(self, (), (), ())
        else:
            zero = RectForm(self, (left.one,), (right.one,), (0,))
            one = RectForm(self, (left.one,), (right.one,), (1,))
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "one", one)
        finite = (left.kind == right.kind == POWERSET
                  and 0 < left.atom_count * right.atom_count <= MAX_ATOMS)
        object.__setattr__(self, "_forms", {} if finite else None)

    @property
    def name(self) -> str:
        return f"{self.left.name or self.left.kind} (x) {self.right.name or self.right.kind}"

    def rect(self, a: Elem, b: Elem) -> "RectForm":
        return self.normalize([Rectangle(a, b)])

    def embed_left(self, a: Elem) -> "RectForm":
        """Canonical embedding of the left factor."""
        self.left._check(a)
        return self.rect(a, self.right.one)

    def embed_right(self, b: Elem) -> "RectForm":
        self.right._check(b)
        return self.rect(self.left.one, b)

    def normalize(self, rects: Sequence[Rectangle]) -> "RectForm":
        """Canonical form of a finite union of rectangles.

        Several rectangles are laid on the grid of the factors' point cells,
        ``Algebra.joint_cells`` of their sides, then coarsened by
        ``_join_cells``; the result is independent of input order and of how
        rectangles were split.
        """
        for r in rects:
            self.left._check(r.left)
            self.right._check(r.right)
        rects = [r for r in rects if not r.is_zero()]
        if not rects:
            return self.zero
        if len(rects) == 1:
            # the grid (a, ~a) x (b, ~b) with the one cell a x b active has
            # distinct rows and distinct columns: it is canonical as built
            (r,) = rects
            L = refine_partition(self.left.one, [r.left])
            R = refine_partition(self.right.one, [r.right])
            col = 1 << R.index(r.right)
            return RectForm(self, tuple(L), tuple(R),
                            tuple(col if c == r.left else 0 for c in L))
        L, lmasks, _ = self.left.joint_cells([r.left for r in rects])
        R, rmasks, _ = self.right.joint_cells([r.right for r in rects])
        # row i: the right cells of every rectangle whose left side holds cell i
        width, mask = len(R), 0
        for lm, rm in zip(lmasks, rmasks):
            for i in range(len(L)):
                if lm >> i & 1:
                    mask |= rm << i * width
        return _join_cells(self, (L, R), mask)

    # -- finite structure (both factors nontrivial powersets) ----------------

    @property
    def atom_count(self) -> int:
        self._require_finite()
        return self.left.atom_count * self.right.atom_count

    def atoms(self) -> tuple["RectForm", ...]:
        """Atom rectangles in (left, right) index order."""
        self._require_finite()
        return tuple(self.rect(p, q) for p in self.left.atoms() for q in self.right.atoms())

    def from_atom_mask(self, mask: int) -> "RectForm":
        """Join of the atom rectangles, pair (p, q) at bit p * m + q."""
        if type(mask) is not int:
            raise AlgebraError(f"atom masks are ints, not {type(mask).__name__}")
        if not 0 <= mask < 1 << self.atom_count:
            raise AlgebraError(f"atom mask {mask} is outside [0, 2^{self.atom_count})")
        return _join_cells(self, (self.left.atoms(), self.right.atoms()), mask)

    def atom_mask(self, x: "RectForm") -> int:
        """Bitmask over atom pairs, pair (p, q) at bit p * m + q."""
        self._require_finite()
        self._check(x)
        m = self.right.atom_count
        mask = 0
        lidx, _ = point_index(self.left, x.left_cells)
        ridx, _ = point_index(self.right, x.right_cells)
        for p in range(self.left.atom_count):
            row = x.rows[lidx[p + 1]]
            for q in range(m):
                if row >> ridx[q + 1] & 1:
                    mask |= 1 << (p * m + q)
        return mask

    def elements(self) -> Iterator["RectForm"]:
        self._require_finite()
        for mask in range(1 << self.atom_count):
            yield self.from_atom_mask(mask)

    def _require_finite(self) -> None:
        if self.is_trivial or self.left.kind != POWERSET or self.right.kind != POWERSET:
            raise AlgebraError("operation requires two nontrivial powerset factors")

    # -- generic backend surface ----------------------------------------------

    def join(self, xs: Iterable["RectForm"]) -> "RectForm":
        """Join of a finite family (zero if empty), members unchecked: the
        members' cell masks on one ``_joint_cells`` grid, ORed."""
        payload, masks, _ = _joint_cells(self, list(xs))
        return _join_cells(self, payload, reduce(or_, masks, 0))

    # one sup body for every backend: check each member, then join
    sup = Algebra.sup

    def random_elem(self, rng: random.Random) -> "RectForm":
        """The union of 1-3 random rectangles, built by one ``normalize``,
        complemented with probability 0.3."""
        if self.is_trivial:
            return self.zero
        out = self.normalize([Rectangle(self.left.random_elem(rng), self.right.random_elem(rng))
                              for _ in range(rng.randint(1, 3))])
        if rng.random() < 0.3:
            out = ~out
        return out

    def sort_key(self, x: "RectForm"):
        return (
            tuple(self.left.sort_key(c) for c in x.left_cells),
            tuple(self.right.sort_key(c) for c in x.right_cells),
            x.rows,
        )

    def joint_cells(self, parts: Sequence["RectForm"]):
        """Shared grid and each part's flat cell mask: ``_joint_cells``."""
        return _joint_cells(self, parts)

    def join_cells(self, payload, mask: int) -> "RectForm":
        """The element over the cells at the set bits: ``_join_cells``."""
        return _join_cells(self, payload, mask)

    def _check(self, x: "RectForm") -> "RectForm":
        if not isinstance(x, RectForm) or (x.fp is not self and x.fp != self):
            raise AlgebraError("element belongs to a different free product")
        return x


@dataclass(frozen=True, slots=True, init=False)
class RectForm:
    """Canonical grid form of a free-product element.

    Built like ``Elem``: ``__init__`` sets each slot once, and it is frozen.
    """

    fp: FreeProduct
    left_cells: tuple[Elem, ...]
    right_cells: tuple[Elem, ...]
    rows: tuple[int, ...]

    def __init__(self, fp: FreeProduct, left_cells: tuple[Elem, ...],
                 right_cells: tuple[Elem, ...], rows: tuple[int, ...]) -> None:
        _grid_fp(self, fp)
        _grid_left(self, left_cells)
        _grid_right(self, right_cells)
        _grid_rows(self, rows)

    @property
    def alg(self) -> FreeProduct:
        return self.fp

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    def _match(self, other: "RectForm") -> None:
        if not isinstance(other, RectForm) or (other.fp is not self.fp and other.fp != self.fp):
            raise AlgebraError("operands belong to different free products")

    def _binary(self, other: "RectForm", op) -> "RectForm":
        self._match(other)
        fp = self.fp
        payload, (a, b), _ = _joint_cells(fp, (self, other))
        return _join_cells(fp, payload, op(a, b))

    def __and__(self, other: "RectForm") -> "RectForm":
        return self._binary(other, and_)

    def __or__(self, other: "RectForm") -> "RectForm":
        return self._binary(other, or_)

    def __xor__(self, other: "RectForm") -> "RectForm":
        return self._binary(other, xor)

    def __invert__(self) -> "RectForm":
        # complementing every row keeps the rows distinct and the columns
        # distinct, so the complement of a canonical grid is canonical
        full = (1 << len(self.right_cells)) - 1
        return RectForm(self.fp, self.left_cells, self.right_cells,
                        tuple(r ^ full for r in self.rows))

    def leq(self, other: "RectForm") -> bool:
        self._match(other)
        _, (a, b), _ = _joint_cells(self.fp, (self, other))
        return a & ~b == 0

    def rel_complement(self, other: "RectForm") -> "RectForm":
        return self & ~(self & other)

    def decompose_disjoint(self) -> tuple[Rectangle, ...]:
        """Pairwise-disjoint nonzero rectangles whose join is the element.

        One rectangle per active grid row: the row's left cell against the
        join of its active right cells.  Cells with identical rows were
        already merged by canonicalization, so the output is deterministic.
        """
        right = self.fp.right
        return tuple(Rectangle(lc, right.join_cells(self.right_cells, row))
                     for lc, row in zip(self.left_cells, self.rows) if row)


_rect_left = Rectangle.left.__set__
_rect_right = Rectangle.right.__set__
_grid_fp = RectForm.fp.__set__
_grid_left = RectForm.left_cells.__set__
_grid_right = RectForm.right_cells.__set__
_grid_rows = RectForm.rows.__set__


def _joint_cells(fp: FreeProduct, parts: Sequence[RectForm]):
    """The common grid (L, R) of several elements, each one's flat cell mask
    on it and the number of cells: on a product with a table, the factors'
    own ``atoms()`` tuples and the atom masks; else ``_common_axis`` of each
    axis, and each element's rows laid end to end on the common rows, then
    spread onto the common columns by ``_runs``, each run in every row at
    once.  Over a trivial product the common grid is empty."""
    if fp._forms is not None:
        L, R = fp.left.atoms(), fp.right.atoms()
        masks = [_grid_mask(fp, x.left_cells, x.right_cells, x.rows) for x in parts]
    elif fp.is_trivial:
        L, R, masks = (), (), [0] * len(parts)
    else:
        L, row_sources = _common_axis(fp.left, [x.left_cells for x in parts])
        R, col_sources = _common_axis(fp.right, [x.right_cells for x in parts])
        width, masks = len(R), []
        ones = ((1 << width * len(L)) - 1) // ((1 << width) - 1)  # bit 0 of each row
        for x, rows_at, cols_at in zip(parts, row_sources, col_sources):
            # an own row is no wider than a common one, so no run crosses rows
            own = 0
            for i in reversed(rows_at):
                own = own << width | x.rows[i]
            m = 0
            for src, dst, full in _runs(cols_at):
                m |= (own >> src & full * ones) << dst
            masks.append(m)
    return (L, R), masks, len(L) * len(R)


def _join_cells(fp: FreeProduct, payload, mask: int) -> RectForm:
    """The canonical form of the cells of the grid ``payload`` at the set
    bits of the flat mask ``mask``, bits past the last cell dropped.

    Without a table, the grid coarsened by ``_coarsen``.  With one, the
    payload must be the factors' own atom tuples, compared by identity, and
    the form is the one stored under ``mask`` as an atom mask; a mask met
    for the first time is coarsened and stored.  Any other payload there
    raises AlgebraError."""
    L, R = payload
    forms = fp._forms
    if forms is None:
        return _coarsen(fp, L, R, mask)
    if L is not fp.left.atoms() or R is not fp.right.atoms():
        raise AlgebraError("a grid on a product with a table is the factors' atom pairs")
    key = mask & ~(-1 << len(L) * len(R))
    form = forms.get(key)
    if form is None:
        form = forms[key] = _coarsen(fp, L, R, mask)
    return form


def _common_axis(alg: Algebra, axes: Sequence[Sequence[Elem]]):
    """The common refinement of one axis of several grids, as ``_meets``
    gives it, and per grid the index of its own cell under each common cell.
    When every grid has the same cells on the axis, those cells are the
    refinement and common cell k is cell k of every grid."""
    if axes and all(cells == axes[0] for cells in axes):
        return list(axes[0]), [range(len(axes[0]))] * len(axes)
    cells, signatures = _meets(alg, axes)
    return cells, list(zip(*signatures))


def _runs(sources: Sequence[int]) -> list[tuple[int, int, int]]:
    """The runs of a spread: common column j lies under own column
    ``sources[j]``, and a run is a longest stretch of common columns under
    consecutive own columns.  Each run is (first own column, first common
    column, a mask as wide as the run), so it moves in one shift and mask."""
    starts = [j for j in range(len(sources)) if j == 0 or sources[j] != sources[j - 1] + 1]
    ends = starts[1:] + [len(sources)]
    return [(sources[a], a, (1 << (b - a)) - 1) for a, b in zip(starts, ends)]


def _coarsen(fp: FreeProduct, L: Sequence[Elem], R: Sequence[Elem], mask: int) -> RectForm:
    """Coarsen a grid given by its flat mask one axis at a time: merge the
    left cells with equal rows, then the right cells with equal columns."""
    L, rows = _merge(fp.left, L, _rows(mask, len(L), len(R)))
    R, cols = _merge(fp.right, R, _transpose(rows, len(R)))
    return RectForm(fp, L, R, tuple(_transpose(cols, len(L))))


def _rows(mask: int, count: int, width: int) -> list[int]:
    """The first ``count`` rows of a flat mask, row i at bit i * width."""
    full = (1 << width) - 1
    return [mask >> (i * width) & full for i in range(count)]


def _grid_mask(fp: FreeProduct, L: Sequence[Elem], R: Sequence[Elem],
               rows: Sequence[int]) -> int:
    """Atom mask of a grid over a product with a table: each row's right
    cells ORed into one bitset, shifted under each atom p of its left cell
    to bit p * m.  The cells may come in any order."""
    m = fp.right.atom_count
    mask = 0
    for cell, row in zip(L, rows):
        right = 0
        for c in R:
            if row & 1:
                right |= c.data
            row >>= 1
        left = cell.data
        while left:
            low = left & -left
            mask |= right << (low.bit_length() - 1) * m
            left ^= low
    return mask


def _merge(alg: Algebra, cells: Sequence[Elem], masks: Sequence[int]):
    """Join the cells that share a mask, a lone cell kept as it is and each
    group of several joined once with the kernel's ``join``, and sort the
    merged cells by the kernel's ``sort_key``, taken once per merged cell.

    Returns the merged cells and, beside each, its mask.
    """
    kernel = alg.kernel
    groups: dict[int, list[Elem]] = {}
    for cell, m in zip(cells, masks):
        groups.setdefault(m, []).append(cell)
    merged = []
    for m, g in groups.items():
        cell = g[0] if len(g) == 1 else Elem(alg, kernel.join([c.data for c in g]))
        merged.append((kernel.sort_key(cell.data), cell, m))
    merged.sort(key=itemgetter(0))
    return tuple(c for _, c, _ in merged), [m for _, _, m in merged]


def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """The ``width`` columns of a bit matrix given by its rows, each column a
    mask over the rows."""
    cols = [0] * width
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    return cols


class InducedHom:
    """The homomorphism out of a free product determined by factor maps.

    Sends an element to the join, over active grid cells, of the left cell's
    image meet the right cell's image.  Both factor maps are atom maps into
    ``target`` (``Hom.atom_map`` is set), so they are homomorphisms by
    construction and nothing is checked per element; a table, a
    generator-image map or a map out of finite_cofinite is refused.
    """

    def __init__(self, phi_left, phi_right, target: Algebra):
        for phi in (phi_left, phi_right):
            if phi.atom_map is None:
                raise AlgebraError(f"factor map out of {phi.source.kind} is no atom map")
            if phi.target != target:
                raise AlgebraError(f"factor map lands in {phi.target.name}, not in {target.name}")
        self.phi_left = phi_left
        self.phi_right = phi_right
        self.target = target

    def __call__(self, x: RectForm) -> Elem:
        pieces = []
        for lc, row in zip(x.left_cells, x.rows):
            if row:
                left_img = self.phi_left(lc)
                pieces += [left_img & self.phi_right(rc)
                           for j, rc in enumerate(x.right_cells) if row >> j & 1]
        return self.target.join(pieces)

    def via_rectangles(self, x: RectForm) -> Elem:
        """Same map computed through the disjoint-rectangle decomposition."""
        return self.target.join(self.phi_left(r.left) & self.phi_right(r.right)
                                for r in x.decompose_disjoint())
