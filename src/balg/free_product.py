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
onto them with bit operations.  ``normalize`` builds its grid from the
factors' ``joint_cells``: the cells refining the rectangle sides, and one
cell mask per side.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from .algebra import Algebra, AlgebraError, Elem, POWERSET, _meets, point_index
# bound here by name so that the perfbench tracer can patch it
from .algebra import refine_partition  # noqa: F401


@dataclass(frozen=True, slots=True)
class Rectangle:
    """A coordinate rectangle: the meet of the two factor embeddings."""

    left: Elem
    right: Elem

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
        if self.is_trivial or not rects:
            return self.zero
        for r in rects:
            self.left._check(r.left)
            self.right._check(r.right)
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

    def from_atom_rows(self, rows: Sequence[int]) -> "RectForm":
        """Element from an activity matrix over the atom-by-atom grid."""
        self._require_finite()
        return _canonical(self, list(self.left.atoms()), list(self.right.atoms()), list(rows))

    def from_atom_mask(self, mask: int) -> "RectForm":
        self._require_finite()
        m = self.right.atom_count
        full = (1 << m) - 1
        rows = [(mask >> (p * m)) & full for p in range(self.left.atom_count)]
        return self.from_atom_rows(rows)

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

    # one join-of-a-list body for every backend
    sup = Algebra.sup

    def random_elem(self, rng: random.Random) -> "RectForm":
        if self.is_trivial:
            return self.zero
        out = self.zero
        for _ in range(rng.randint(1, 3)):
            out = out | self.rect(self.left.random_elem(rng), self.right.random_elem(rng))
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
        if self.is_trivial:
            return ((), ()), [0 for _ in parts], 0
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
        if self.is_trivial:
            return self.zero
        width = len(R)
        rows = [(mask >> (i * width)) & ((1 << width) - 1) for i in range(len(L))]
        return _canonical(self, list(L), list(R), rows)

    def _check(self, x: "RectForm") -> "RectForm":
        if x.fp != self:
            raise AlgebraError("element belongs to a different free product")
        return x


@dataclass(frozen=True, slots=True)
class RectForm:
    """Canonical grid form of a free-product element."""

    fp: FreeProduct
    left_cells: tuple[Elem, ...]
    right_cells: tuple[Elem, ...]
    rows: tuple[int, ...]

    @property
    def alg(self) -> FreeProduct:
        return self.fp

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    def _match(self, other: "RectForm") -> None:
        if not isinstance(other, RectForm) or self.fp != other.fp:
            raise AlgebraError("operands belong to different free products")

    def _binary(self, other: "RectForm", op) -> "RectForm":
        self._match(other)
        if self.fp.is_trivial:
            return self
        L, R, (a, b) = _overlay(self.fp, (self, other))
        return _canonical(self.fp, L, R, [op(x, y) for x, y in zip(a, b)])

    def __and__(self, other: "RectForm") -> "RectForm":
        return self._binary(other, lambda x, y: x & y)

    def __or__(self, other: "RectForm") -> "RectForm":
        return self._binary(other, lambda x, y: x | y)

    def __xor__(self, other: "RectForm") -> "RectForm":
        return self._binary(other, lambda x, y: x ^ y)

    def __invert__(self) -> "RectForm":
        if self.fp.is_trivial:
            return self
        full = (1 << len(self.right_cells)) - 1
        return _canonical(self.fp, list(self.left_cells), list(self.right_cells),
                          [r ^ full for r in self.rows])

    def leq(self, other: "RectForm") -> bool:
        self._match(other)
        if self.fp.is_trivial:
            return True
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
        out = []
        for i, row in enumerate(self.rows):
            if row == 0:
                continue
            acc = self.fp.right.zero
            for j, rc in enumerate(self.right_cells):
                if row >> j & 1:
                    acc = acc | rc
            out.append(Rectangle(self.left_cells[i], acc))
        return tuple(out)


def _overlay(fp: FreeProduct, grids: Sequence[RectForm]):
    """Common grid of several elements, with each element's rows on it.

    Returns the common left and right cells and, per element, its activity
    rows over them.
    """
    L, lsrc = _meets(fp.left, [x.left_cells for x in grids])
    R, rsrc = _meets(fp.right, [x.right_cells for x in grids])
    out = []
    for g, x in enumerate(grids):
        # common columns under each of x's own columns
        cols = [0] * len(x.right_cells)
        for j, src in enumerate(rsrc):
            cols[src[g]] |= 1 << j
        spread = []
        for row in x.rows:
            m = 0
            for k, col in enumerate(cols):
                if row >> k & 1:
                    m |= col
            spread.append(m)
        out.append([spread[src[g]] for src in lsrc])
    return L, R, out


def _cell_of(n: int, cells: Sequence[Elem]) -> int | None:
    """Index of the cell holding the point n, or None."""
    return next((k for k, c in enumerate(cells) if c.contains(n)), None)


def _canonical(fp: FreeProduct, L: list[Elem], R: list[Elem],
               rows: list[int]) -> RectForm:
    """Coarsen a grid by merging equal rows and equal columns, then order."""
    if fp.is_trivial:
        return RectForm(fp, (), (), ())
    # merge left cells sharing a row pattern
    row_groups: dict[int, Elem] = {}
    for i, rm in enumerate(rows):
        if rm in row_groups:
            row_groups[rm] = row_groups[rm] | L[i]
        else:
            row_groups[rm] = L[i]
    mrows = list(row_groups)
    mL = [row_groups[rm] for rm in mrows]
    # merge right cells sharing a column pattern over the merged rows
    col_groups: dict[int, Elem] = {}
    col_reps: dict[int, int] = {}
    for j in range(len(R)):
        cm = 0
        for k, rm in enumerate(mrows):
            if rm >> j & 1:
                cm |= 1 << k
        if cm in col_groups:
            col_groups[cm] = col_groups[cm] | R[j]
        else:
            col_groups[cm] = R[j]
            col_reps[cm] = j
    mR = list(col_groups.values())
    reps = list(col_reps.values())
    rows2 = []
    for rm in mrows:
        m = 0
        for newj, j in enumerate(reps):
            if rm >> j & 1:
                m |= 1 << newj
        rows2.append(m)
    # deterministic cell order
    lperm = sorted(range(len(mL)), key=lambda i: fp.left.sort_key(mL[i]))
    rperm = sorted(range(len(mR)), key=lambda j: fp.right.sort_key(mR[j]))
    final_rows = []
    for i in lperm:
        m = 0
        for newj, j in enumerate(rperm):
            if rows2[i] >> j & 1:
                m |= 1 << newj
        final_rows.append(m)
    return RectForm(fp,
                    tuple(mL[i] for i in lperm),
                    tuple(mR[j] for j in rperm),
                    tuple(final_rows))


class InducedHom:
    """The homomorphism out of a free product determined by factor maps.

    Sends an element to the join, over active grid cells, of the left cell's
    image meet the right cell's image.
    """

    def __init__(self, phi_left, phi_right, target: Algebra):
        from .algebra import check_homomorphism

        for phi in (phi_left, phi_right):
            verdict = check_homomorphism(phi, trials=32, rng=random.Random(0))
            if not verdict.ok:
                raise AlgebraError(
                    f"factor map violates the {verdict.axiom} axiom")
        self.phi_left = phi_left
        self.phi_right = phi_right
        self.target = target

    def __call__(self, x: RectForm) -> Elem:
        out = self.target.zero
        for i, row in enumerate(x.rows):
            if row == 0:
                continue
            left_img = self.phi_left(x.left_cells[i])
            for j in range(len(x.right_cells)):
                if row >> j & 1:
                    out = out | (left_img & self.phi_right(x.right_cells[j]))
        return out

    def via_rectangles(self, x: RectForm) -> Elem:
        """Same map computed through the disjoint-rectangle decomposition."""
        out = self.target.zero
        for r in x.decompose_disjoint():
            out = out | (self.phi_left(r.left) & self.phi_right(r.right))
        return out


def induced_hom(phi_left, phi_right, target: Algebra) -> InducedHom:
    return InducedHom(phi_left, phi_right, target)
