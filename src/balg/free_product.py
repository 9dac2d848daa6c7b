"""Free product of two backends as a rectangle-normal-form algebra.

An element is stored as a grid: a partition of each coordinate unit into
cells plus an activity matrix saying which cell rectangles lie under the
element.  The canonical grid is the coarsest one (no two rows and no two
columns of the matrix coincide) with cells in deterministic order, so
structural equality decides mathematical equality.

Each axis of a grid partitions that axis's unit, so the common refinement
of several grids is the nonzero meets of their cells, one cell from each
grid.  Binary operations, ``leq`` and ``joint_cells`` take those meets with
``algebra._meets``, the one refinement kernel, and copy each grid's rows
onto them with bit operations.  An axis on which every grid has the same
cells is already common, so ``_overlay`` neither refines it nor moves rows
along it.  ``normalize`` builds its grid from the factors' ``joint_cells``:
the cells refining the rectangle sides, and one cell mask per side.  One
nonzero rectangle a x b needs neither: its grid (a, ~a) x (b, ~b), with the
one cell a x b active, is canonical as it stands.  Either way ``normalize``
refines each axis once with ``refine_partition``.

The product has one n-ary join, ``FreeProduct.join``.  ``_canonical``
coarsens a grid one axis at a time with one step, ``_merge``: it merges the
left cells with equal rows, transposes, merges the right cells with equal
columns and transposes back, each group of cells joined once with the
factor kernel's ``join``.  The complement of a canonical grid complements its rows
and is canonical as it stands.  A product with a trivial factor has one
element, the empty grid with no cells: only ``_overlay`` tests for this, and
``normalize`` finds every rectangle there zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from operator import itemgetter, or_
from typing import Iterable, Iterator, Sequence

from .algebra import Algebra, AlgebraError, Elem, POWERSET, _meets, point_index, refine_partition


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
    """The free product of two backend algebras."""

    left: Algebra
    right: Algebra

    @property
    def is_trivial(self) -> bool:
        # the product collapses to one element iff either factor is trivial
        return self.left.is_trivial or self.right.is_trivial

    @property
    def name(self) -> str:
        return f"{self.left.name or self.left.kind} (x) {self.right.name or self.right.kind}"

    @property
    def zero(self) -> "RectForm":
        if self.is_trivial:
            return RectForm(self, (), (), ())
        return RectForm(self, (self.left.one,), (self.right.one,), (0,))

    @property
    def one(self) -> "RectForm":
        if self.is_trivial:
            return RectForm(self, (), (), ())
        return RectForm(self, (self.left.one,), (self.right.one,), (1,))

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

        The grid is built from the atoms of the subalgebras generated by the
        rectangle sides, then coarsened; the result is independent of input
        order and of how rectangles were split.
        """
        rects = [r for r in rects if not r.is_zero()]
        if not rects:
            return self.zero
        for r in rects:
            self.left._check(r.left)
            self.right._check(r.right)
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
        rows = [0] * len(L)
        for lm, rm in zip(lmasks, rmasks):
            for i in range(len(L)):
                if lm >> i & 1:
                    rows[i] |= rm
        return _canonical(self, L, R, rows)

    # -- finite structure (both factors nontrivial powersets) ----------------

    @property
    def atom_count(self) -> int:
        self._require_finite()
        return self.left.atom_count * self.right.atom_count

    def atoms(self) -> tuple["RectForm", ...]:
        """Atom rectangles in (left, right) index order."""
        self._require_finite()
        out = []
        for p in self.left.atoms():
            for q in self.right.atoms():
                out.append(self.rect(p, q))
        return tuple(out)

    def from_atom_mask(self, mask: int) -> "RectForm":
        """Join of the atom rectangles, pair (p, q) at bit p * m + q."""
        self._require_finite()
        return self.join_cells((self.left.atoms(), self.right.atoms()), mask)

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

    def contains_point(self, x: "RectForm", p: int, q: int) -> bool:
        """Membership of the product point (p, q); exact on every backend."""
        self._check(x)
        if self.is_trivial:
            return False
        i, j = _cell_of(p, x.left_cells), _cell_of(q, x.right_cells)
        if i is None or j is None:
            raise AlgebraError(f"({p}, {q}) is not a point of the product")
        return bool(x.rows[i] >> j & 1)

    def join(self, xs: Iterable["RectForm"]) -> "RectForm":
        """Join of a finite family (zero if empty), members unchecked: one
        overlay of the family, its rows ORed, one canonicalisation."""
        xs = list(xs)
        if not xs:
            return self.zero
        L, R, grids = _overlay(self, xs)
        return _canonical(self, L, R, [reduce(or_, row) for row in zip(*grids)])

    # one sup body for every backend: check each member, then join
    sup = Algebra.sup

    def random_elem(self, rng: random.Random) -> "RectForm":
        if self.is_trivial:
            return self.zero
        out = self.join([self.rect(self.left.random_elem(rng), self.right.random_elem(rng))
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
        """Shared grid refining every part, plus each part's cell bitmask.

        The payload is a (left cells, right cells) pair; flat cell index
        ``i * len(right cells) + j``.
        """
        L, R, grids = _overlay(self, parts)
        width = len(R)
        masks = []
        for rows in grids:
            m = 0
            for i, row in enumerate(rows):
                m |= row << (i * width)
            masks.append(m)
        return (L, R), masks, len(L) * width

    def join_cells(self, payload, mask: int) -> "RectForm":
        L, R = payload
        width = len(R)
        rows = [(mask >> (i * width)) & ((1 << width) - 1) for i in range(len(L))]
        return _canonical(self, L, R, rows)

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
        L, R, (a, b) = _overlay(self.fp, (self, other))
        return _canonical(self.fp, L, R, [op(x, y) for x, y in zip(a, b)])

    def __and__(self, other: "RectForm") -> "RectForm":
        return self._binary(other, lambda x, y: x & y)

    def __or__(self, other: "RectForm") -> "RectForm":
        return self._binary(other, lambda x, y: x | y)

    def __xor__(self, other: "RectForm") -> "RectForm":
        return self._binary(other, lambda x, y: x ^ y)

    def __invert__(self) -> "RectForm":
        # complementing every row keeps the rows distinct and the columns
        # distinct, so the complement of a canonical grid is canonical
        full = (1 << len(self.right_cells)) - 1
        return RectForm(self.fp, self.left_cells, self.right_cells,
                        tuple(r ^ full for r in self.rows))

    def leq(self, other: "RectForm") -> bool:
        self._match(other)
        _, _, (a, b) = _overlay(self.fp, (self, other))
        return all(x & ~y == 0 for x, y in zip(a, b))

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


def _overlay(fp: FreeProduct, grids: Sequence[RectForm]):
    """Common grid of several elements, with each element's rows on it.

    Returns the common left and right cells and, per element, its activity
    rows over them.  Over a trivial product the common grid is empty.  An
    axis on which every element has the same cells is the common axis as it
    stands: it is not refined, and rows are not moved along it.
    """
    if fp.is_trivial:
        return (), (), [[] for _ in grids]
    L, lsrc = _common_axis(fp.left, [x.left_cells for x in grids])
    R, rsrc = _common_axis(fp.right, [x.right_cells for x in grids])
    out = []
    for g, x in enumerate(grids):
        if rsrc is None:
            spread = x.rows
        else:
            # common columns under each of x's own columns
            cols = [0] * len(x.right_cells)
            for j, src in enumerate(rsrc):
                cols[src[g]] |= 1 << j
            spread = []
            for row in x.rows:
                m = 0
                while row:
                    low = row & -row
                    m |= cols[low.bit_length() - 1]
                    row ^= low
                spread.append(m)
        out.append(spread if lsrc is None else [spread[src[g]] for src in lsrc])
    return L, R, out


def _common_axis(alg: Algebra, axes: Sequence[Sequence[Elem]]):
    """The common refinement of one axis of several grids and each cell's
    signature, as ``_meets`` gives them.  When every grid has the same cells
    on the axis, those cells are the refinement and the signatures are None:
    common cell k is cell k of every grid."""
    if axes and all(cells == axes[0] for cells in axes):
        return list(axes[0]), None
    return _meets(alg, axes)


def _cell_of(n: int, cells: Sequence[Elem]) -> int | None:
    """Index of the cell holding the point n, or None."""
    return next((k for k, c in enumerate(cells) if c.contains(n)), None)


def _canonical(fp: FreeProduct, L: Sequence[Elem], R: Sequence[Elem],
               rows: list[int]) -> RectForm:
    """Coarsen a grid one axis at a time: merge the left cells with equal
    rows, then the right cells with equal columns."""
    L, rows = _merge(fp.left, L, rows)
    R, cols = _merge(fp.right, R, _transpose(rows, len(R)))
    return RectForm(fp, L, R, tuple(_transpose(cols, len(L))))


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


def _homomorphism_defect(phi) -> str | None:
    """Why a factor map is no Boolean homomorphism, or None.

    Out of P(n) the check is exact, in 2^n calls: the atoms' images are
    pairwise disjoint and join to the target's unit, and each element goes
    to the join of its atoms' images.  Out of finite_cofinite it samples 32
    pairs.
    """
    from .algebra import check_homomorphism

    src, dst = phi.source, phi.target
    if src.kind != POWERSET:
        verdict = check_homomorphism(phi, trials=32, rng=random.Random(0))
        return None if verdict.ok else f"violates the {verdict.axiom} axiom"
    atoms = () if src.is_trivial else src.atoms()
    images = [phi(t) for t in atoms]
    if any(not (x & y).is_zero() for i, x in enumerate(images) for y in images[:i]):
        return "sends two atoms to overlapping images"
    if dst.join(images) != dst.one:
        return "sends the atoms to images that do not join to the unit"
    for x in src.elements():
        if phi(x) != dst.join(y for t, y in zip(atoms, images) if t.leq(x)):
            return "sends an element off the join of its atoms' images"
    return None


class InducedHom:
    """The homomorphism out of a free product determined by factor maps.

    Sends an element to the join, over active grid cells, of the left cell's
    image meet the right cell's image.
    """

    def __init__(self, phi_left, phi_right, target: Algebra):
        for phi in (phi_left, phi_right):
            defect = _homomorphism_defect(phi)
            if defect is not None:
                raise AlgebraError(f"factor map {defect}")
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
