"""Points of the Stone space, and membership read at them.

An element is a clopen set of its algebra's Stone space: the atoms 1..n of
P(n); the naturals and ``TAIL``, the ultrafilter of cofinite sets, of
finite_cofinite; the pairs (p, q) of a free product.  ``decisive`` lists
the points that decide a finite family, TAIL standing for every natural the
family names nowhere, and ``holds`` reads membership at points off an
element's own data, never through ``point_index`` or ``meets``.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import POWERSET, Algebra, AlgebraError, Elem


class _Tail:
    def __repr__(self) -> str:
        return "TAIL"


TAIL = _Tail()


def decisive(alg: Algebra, elems: Sequence[Elem]) -> list:
    """The points that decide ``elems``: the atoms 1..n of P(n); on
    finite_cofinite the naturals they name, in increasing order, then TAIL."""
    if alg.kind == POWERSET:
        return list(range(1, alg.atom_count + 1))
    # a support is sorted, so one member's names need no sort
    if len(elems) == 1:
        return [*elems[0].data[1], TAIL]
    return [*sorted({n for x in elems for n in x.data[1]}), TAIL]


def holds(x, pts: Sequence) -> list[bool]:
    """Whether x holds each of ``pts``, pairs (p, q) on a grid, where a
    trivial product holds none; a coordinate that is no point raises
    AlgebraError."""
    if isinstance(x, Elem):
        if x.alg.kind == POWERSET:  # x as the one cell 0
            return [k == 0 for k in _cells_at(x.alg, (x,), pts)]
        mode, support = x.data
        cof = mode == "cof"
        if len(pts) > 4:  # a few lookups scan the tuple, more pay for a set
            support = frozenset(support)
        return [cof if p is TAIL else (p in support) != cof if type(p) is int and p >= 0
                else _refuse(x.alg, p) for p in pts]
    fp = x.fp
    if fp.is_trivial:
        return [False] * len(pts)
    ps, qs = zip(*pts) if pts else ((), ())
    rows = x.rows
    return [i is not None and j is not None and rows[i] >> j & 1 == 1
            for i, j in zip(_cells_at(fp.left, x.left_cells, ps),
                            _cells_at(fp.right, x.right_cells, qs))]


def _cells_at(alg: Algebra, cells: Sequence[Elem], coords: Sequence) -> list[int | None]:
    """Index of the cell of one axis holding each coordinate, or None, read
    off the cells' own supports in one pass."""
    if alg.kind == POWERSET:
        n = alg.atom_count
        index = {p + 1: k for k, c in enumerate(cells) for p in range(n) if c.data >> p & 1}
        return [index.get(p) if type(p) is int and 1 <= p <= n else _refuse(alg, p)
                for p in coords]
    index, tail, left_out = {}, None, ()
    for k, c in enumerate(cells):
        mode, support = c.data
        if mode == "fin":
            index.update(dict.fromkeys(support, k))
        else:
            tail, left_out = k, support
    # what the cof cell leaves out and no fin cell holds lies in no cell
    index = dict.fromkeys(left_out) | index
    return [index.get(p, tail) if type(p) is int and p >= 0 else tail if p is TAIL
            else _refuse(alg, p) for p in coords]


def _refuse(alg: Algebra, p):
    raise AlgebraError(f"{p!r} is not a point of {alg.name or alg.kind}")
