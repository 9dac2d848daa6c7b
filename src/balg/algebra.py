"""Boolean algebra backends: finite powersets and the finite-cofinite algebra.

Elements are immutable values with a unique representation per mathematical
element, so structural equality (``==``) decides mathematical equality.
Powerset elements are bitsets over the atom index range; finite-cofinite
elements are a (mode, sorted support) pair over the naturals.  The trivial
algebra is P(0), the powerset of no points: its one bitset, 0, is both zero
and unit, so the powerset arithmetic covers it.

Each backend has one n-ary join, ``Algebra.join``; every join of a family
of elements, ``sup`` and ``join_cells`` among them, goes through it.

The one cell-refinement kernel lives here too: ``_meets`` refines partitions
of the unit by point signatures, after Paige and Tarjan (SIAM J. Comput.
1987); ``refine_partition``, ``Algebra.joint_cells`` and the free-product
grid overlay are built on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

POWERSET = "powerset"
FINITE_COFINITE = "finite_cofinite"

MAX_ATOMS = 16


class AlgebraError(ValueError):
    """Malformed descriptor, cross-algebra operand mix, or unsupported call."""


@dataclass(frozen=True, slots=True)
class Algebra:
    """Descriptor of a Boolean algebra backend.

    ``powerset`` is the algebra of subsets of ``atom_count`` points (atom
    indices are 1-based in text form); ``finite_cofinite`` is the algebra of
    finite and cofinite subsets of the naturals.  The trivial algebra, the
    one-element algebra in which 0 = 1, is the powerset of no points, P(0).
    The ``name`` is a display label and does not participate in equality.
    """

    kind: str
    atom_count: int = 0
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.kind not in (POWERSET, FINITE_COFINITE):
            raise AlgebraError(f"unknown algebra kind {self.kind!r}")
        if self.kind == POWERSET:
            if not 0 <= self.atom_count <= MAX_ATOMS:
                raise AlgebraError(
                    f"powerset atom count must be 0..{MAX_ATOMS}, got {self.atom_count}"
                )
        elif self.atom_count != 0:
            raise AlgebraError("finite_cofinite has no atom count")

    # -- element constructors ------------------------------------------------

    @property
    def zero(self) -> "Elem":
        if self.kind == POWERSET:
            return Elem(self, 0)
        return Elem(self, ("fin", ()))

    @property
    def one(self) -> "Elem":
        if self.kind == POWERSET:
            return Elem(self, (1 << self.atom_count) - 1)
        return Elem(self, ("cof", ()))

    @property
    def is_trivial(self) -> bool:
        return self.kind == POWERSET and self.atom_count == 0

    def subset(self, atoms: Iterable[int]) -> "Elem":
        """Powerset element from 1-based atom indices."""
        if self.kind != POWERSET or self.is_trivial:
            raise AlgebraError("subset literals require a nontrivial powerset algebra")
        bits = 0
        for a in atoms:
            if not 1 <= a <= self.atom_count:
                raise AlgebraError(f"atom {a} out of range 1..{self.atom_count}")
            bits |= 1 << (a - 1)
        return Elem(self, bits)

    def fin(self, support: Iterable[int] = ()) -> "Elem":
        """Finite set of naturals."""
        if self.kind != FINITE_COFINITE:
            raise AlgebraError("fin literals require the finite_cofinite algebra")
        return Elem(self, ("fin", _support(support)))

    def cof(self, excluded: Iterable[int] = ()) -> "Elem":
        """Cofinite set: all naturals except ``excluded``."""
        if self.kind != FINITE_COFINITE:
            raise AlgebraError("cof literals require the finite_cofinite algebra")
        return Elem(self, ("cof", _support(excluded)))

    # -- structure -----------------------------------------------------------

    def atoms(self) -> tuple["Elem", ...]:
        """The minimal nonzero elements, in index order (powerset only)."""
        if self.is_trivial:
            raise AlgebraError("the trivial algebra has no atoms")
        if self.kind != POWERSET:
            raise AlgebraError("atoms are not enumerable for finite_cofinite")
        return tuple(Elem(self, 1 << i) for i in range(self.atom_count))

    def atom_mask(self, x: "Elem") -> int:
        """Bitmask of atoms below x (powerset only)."""
        if self.kind != POWERSET or self.is_trivial:
            raise AlgebraError("atom masks require a nontrivial powerset algebra")
        self._check(x)
        return x.data  # type: ignore[return-value]

    def from_atom_mask(self, bits: int) -> "Elem":
        if self.kind != POWERSET or self.is_trivial:
            raise AlgebraError("atom masks require a nontrivial powerset algebra")
        return Elem(self, bits & ((1 << self.atom_count) - 1))

    def elements(self) -> Iterator["Elem"]:
        """All elements (finite algebras only)."""
        if self.kind != POWERSET:
            raise AlgebraError("finite_cofinite is infinite")
        for bits in range(1 << self.atom_count):
            yield Elem(self, bits)

    def join(self, xs: Iterable["Elem"]) -> "Elem":
        """Join of a finite family (zero if empty), members unchecked: the
        union of the bitsets, or of the fin supports when no member is
        cofinite, else cof of what every cof member leaves out and no fin
        member holds."""
        xs = list(xs)
        if len(xs) == 1:
            return xs[0]
        if self.kind == POWERSET:
            bits = 0
            for x in xs:
                bits |= x.data
            return Elem(self, bits)
        data = [x.data for x in xs]
        held = set().union(*(s for mode, s in data if mode == "fin"))
        cofs = [s for mode, s in data if mode == "cof"]
        if not cofs:
            return Elem(self, ("fin", tuple(sorted(held))))
        left_out = set(cofs[0]).intersection(*cofs[1:]) - held
        return Elem(self, ("cof", tuple(sorted(left_out))))

    def sup(self, xs: Iterable["Elem"]) -> "Elem":
        """Join of a nonempty finite set of elements."""
        xs = [self._check(x) for x in xs]
        if not xs:
            raise AlgebraError("sup of an empty collection")
        return self.join(xs)

    def random_elem(self, rng: random.Random) -> "Elem":
        """A uniform powerset element, or a fin or cof set of up to four
        naturals below 12."""
        if self.kind == POWERSET:
            return Elem(self, rng.getrandbits(self.atom_count))
        size = rng.randint(0, 4)
        support = _support(rng.sample(range(12), size))
        return Elem(self, (rng.choice(("fin", "cof")), support))

    def sort_key(self, x: "Elem"):
        """Deterministic total order on elements; cells sort fin-before-cof."""
        if self.kind == POWERSET:
            bits = x.data
            low = (bits & -bits).bit_length()
            return (low, bits)
        mode, support = x.data
        return (0, support) if mode == "fin" else (1, support)

    def joint_cells(self, parts: Sequence["Elem"]):
        """Shared cell partition refining every part, plus per-part bitmasks."""
        cells = refine_partition(self.one, parts)
        masks = []
        for x in parts:
            m = 0
            for i, c in enumerate(cells):
                if c.leq(x):
                    m |= 1 << i
            masks.append(m)
        return cells, masks, len(cells)

    def join_cells(self, cells: Sequence["Elem"], mask: int) -> "Elem":
        """Join of the cells whose indices are the set bits of ``mask``."""
        return self.join(c for i, c in enumerate(cells) if mask >> i & 1)

    def _check(self, x: "Elem") -> "Elem":
        if not isinstance(x, Elem):
            raise AlgebraError(f"{type(x).__name__} used as an element of {self.name or self.kind}")
        if x.alg != self:
            raise AlgebraError(f"element of {x.alg.name or x.alg.kind} used in {self.name or self.kind}")
        return x


def powerset(atom_count: int, name: str = "") -> Algebra:
    """P(n) for n = 1..MAX_ATOMS; P(0) is ``trivial_algebra``."""
    if not 1 <= atom_count <= MAX_ATOMS:
        raise AlgebraError(f"powerset atom count must be 1..{MAX_ATOMS}, got {atom_count}")
    return Algebra(POWERSET, atom_count, name or f"P({atom_count})")


def finite_cofinite(name: str = "") -> Algebra:
    return Algebra(FINITE_COFINITE, 0, name or "finite_cofinite")


def trivial_algebra(name: str = "") -> Algebra:
    return Algebra(POWERSET, 0, name or "trivial")


def _support(items: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted(set(items)))
    if out and out[0] < 0:
        raise AlgebraError("finite_cofinite supports are sets of naturals")
    return out


@dataclass(frozen=True, slots=True)
class Elem:
    """An element of a backend algebra.

    ``data`` is an atom bitmask for powerset algebras and a
    ``(mode, sorted support)`` pair for the finite-cofinite algebra.
    """

    alg: Algebra
    data: int | tuple[str, tuple[int, ...]]

    def _match(self, other: "Elem") -> None:
        if not isinstance(other, Elem) or self.alg != other.alg:
            raise AlgebraError("operands belong to different algebras")

    def is_zero(self) -> bool:
        if self.alg.kind == POWERSET:
            return self.data == 0
        return self.data == ("fin", ())

    def __and__(self, other: "Elem") -> "Elem":
        self._match(other)
        if self.alg.kind == POWERSET:
            return Elem(self.alg, self.data & other.data)
        ma, sa = self.data
        mb, sb = other.data
        a, b = set(sa), set(sb)
        if ma == "fin" and mb == "fin":
            return Elem(self.alg, ("fin", _support(a & b)))
        if ma == "fin":
            return Elem(self.alg, ("fin", _support(a - b)))
        if mb == "fin":
            return Elem(self.alg, ("fin", _support(b - a)))
        return Elem(self.alg, ("cof", _support(a | b)))

    def __invert__(self) -> "Elem":
        if self.alg.kind == POWERSET:
            return Elem(self.alg, self.data ^ ((1 << self.alg.atom_count) - 1))
        mode, support = self.data
        return Elem(self.alg, ("cof" if mode == "fin" else "fin", support))

    def __or__(self, other: "Elem") -> "Elem":
        self._match(other)
        if self.alg.kind == POWERSET:
            return Elem(self.alg, self.data | other.data)
        return self.alg.join((self, other))

    def __xor__(self, other: "Elem") -> "Elem":
        # disjoint sum (x & ~y) | (~x & y)
        return (self & ~other) | (~self & other)

    def leq(self, other: "Elem") -> bool:
        """Boolean order: x <= y iff x & y == x."""
        self._match(other)
        if self.alg.kind == POWERSET:
            return self.data & other.data == self.data
        ma, sa = self.data
        mb, sb = other.data
        if ma == "fin":
            if mb == "fin":
                return set(sa) <= set(sb)
            return not set(sa) & set(sb)
        if mb == "fin":
            return False
        return set(sb) <= set(sa)

    def rel_complement(self, other: "Elem") -> "Elem":
        """Complement of self & other relative to self: x & ~(x & y)."""
        return self & ~(self & other)

    def contains(self, n: int) -> bool:
        """Pointwise membership; powerset atoms are 1-based, and a finite
        or cofinite set holds naturals only."""
        if self.alg.kind == POWERSET:
            if not 1 <= n <= self.alg.atom_count:
                return False
            return bool(self.data >> (n - 1) & 1)
        if n < 0:
            return False
        mode, support = self.data
        return (n in support) if mode == "fin" else (n not in support)


def point_index(alg: Algebra, cells: Sequence[Elem]) -> tuple[dict[int, int], int | None]:
    """Where the points of one axis lie among its cells.

    Returns a map from each named point to the index of the cell holding it,
    and the index of the tail cell.  On a powerset axis the named points are
    the atoms (1-based) and there is no tail (None).  On a finite_cofinite
    axis they are the members of the fin cells, and every other natural lies
    in the one cof cell, the tail.  Raises AlgebraError unless the cells
    partition the unit.
    """
    index: dict[int, int] = {}
    members = 0
    if alg.kind == POWERSET:
        for k, c in enumerate(cells):
            members += c.data.bit_count()
            index.update((p + 1, k) for p in range(alg.atom_count) if c.data >> p & 1)
        if members != len(index) or len(index) != alg.atom_count:
            raise AlgebraError("the cells of an axis do not partition its atoms")
        return index, None
    tails = [k for k, c in enumerate(cells) if c.data[0] == "cof"]
    if len(tails) != 1:
        raise AlgebraError(f"a finite_cofinite axis has {len(tails)} cofinite cells, not one")
    for k, c in enumerate(cells):
        if k != tails[0]:
            index.update(dict.fromkeys(c.data[1], k))
            members += len(c.data[1])
    if members != len(index):
        raise AlgebraError("a point lies in two fin cells of an axis")
    if index.keys() != set(cells[tails[0]].data[1]):
        raise AlgebraError("the fin cells of an axis are not what its cofinite cell leaves out")
    return index, tails[0]


def _meets(alg: Algebra, partitions) -> tuple[list[Elem], list[tuple[int, ...]]]:
    """Common refinement of partitions of the unit, sorted by ``sort_key``.

    Its cells are the nonzero meets taking one cell from each partition;
    beside each cell goes its signature, the index of the cell it came from
    in each one.  On finite_cofinite the named points are grouped by their
    signatures read off each partition's ``point_index``, so no two cells
    are ever met; the naturals named nowhere share the signature of the cof
    cells and make the tail cell.  On a powerset the cells are met pairwise
    as bitsets, and only the nonzero meets become elements.
    """
    if alg.kind == POWERSET:
        bits = [(alg.one.data, ())]
        for part in partitions:
            data = [p.data for p in part]
            bits = [(m, src + (k,)) for c, src in bits for k, p in enumerate(data) if (m := c & p)]
        cells = sorted(((Elem(alg, m), src) for m, src in bits), key=lambda t: alg.sort_key(t[0]))
        return [c for c, _ in cells], [src for _, src in cells]
    indexes = [point_index(alg, part) for part in partitions]
    named = sorted(set().union(*(index for index, _ in indexes)))
    signatures = zip(*([index.get(n, tail) for n in named] for index, tail in indexes))
    groups: dict[tuple[int, ...], list[int]] = {}
    for n, sig in zip(named, signatures):
        groups.setdefault(sig, []).append(n)
    # disjoint supports sort by their least members, and the groups were
    # opened in increasing order of those, so the fin cells are in key order
    cells = [Elem(alg, ("fin", tuple(points))) for points in groups.values()]
    cells.append(Elem(alg, ("cof", tuple(named))))
    return cells, [*groups, tuple(tail for _, tail in indexes)]


def refine_partition(one: Elem, parts: Sequence[Elem]) -> list[Elem]:
    """Atoms of the finite subalgebra generated by ``parts``.

    The common refinement of the two-cell partitions ``(x, ~x)``: all the
    nonzero signed meets of the parts, sorted by ``sort_key``.
    """
    return _meets(one.alg, [(x, ~x) for x in parts])[0]


# -- homomorphisms -----------------------------------------------------------


class HomDomainError(AlgebraError):
    """Element outside the subalgebra a homomorphism is defined on."""


class Hom:
    """A (claimed) Boolean homomorphism between two backends.

    Three backing strategies:

    * ``atom_map`` -- total function from target atoms to source atoms; the
      image of x is exactly the set of target atoms whose image atom lies in x
      (powerset-to-powerset only, always a genuine homomorphism);
    * ``generator images`` -- images prescribed on a finite generating set and
      extended over the generated subalgebra by signed meets;
    * ``table`` -- an explicit element table, used for negative-control
      fixtures that need not be homomorphisms at all.
    """

    __slots__ = ("source", "target", "_atom_map", "_cells", "_images", "_table", "label")

    def __init__(self, source: Algebra, target: Algebra, *, atom_map=None,
                 cells=None, images=None, table=None, label: str = ""):
        self.source = source
        self.target = target
        self._atom_map = atom_map
        self._cells = cells
        self._images = images
        self._table = table
        self.label = label

    @classmethod
    def from_atom_map(cls, source: Algebra, target: Algebra,
                      atom_map: Sequence[int], label: str = "") -> "Hom":
        """atom_map[q] is the 1-based source atom assigned to target atom q+1."""
        if source.kind != POWERSET or target.kind != POWERSET:
            raise AlgebraError("atom maps require powerset backends")
        if len(atom_map) != target.atom_count:
            raise AlgebraError("atom map must cover every target atom")
        for a in atom_map:
            if not 1 <= a <= source.atom_count:
                raise AlgebraError(f"atom map value {a} outside source atoms")
        return cls(source, target, atom_map=tuple(atom_map), label=label)

    @classmethod
    def identity(cls, alg: Algebra) -> "Hom":
        return cls.from_atom_map(alg, alg, range(1, alg.atom_count + 1), label="id")

    @classmethod
    def from_generator_images(cls, source: Algebra, target: Algebra,
                              pairs: Sequence[tuple[Elem, Elem]], label: str = "") -> "Hom":
        """Extend prescribed generator images over the generated subalgebra.

        The domain cells are the atoms of the subalgebra generated by the
        generator elements; each cell's image is the matching signed meet of
        the generator images.
        """
        gens = [g for g, _ in pairs]
        for g, img in pairs:
            source._check(g)
            target._check(img)
        cells, masks, _ = source.joint_cells(gens)
        images = []
        for i in range(len(cells)):
            img = target.one
            for (_, gi), m in zip(pairs, masks):
                img = img & (gi if m >> i & 1 else ~gi)
            images.append(img)
        return cls(source, target, cells=tuple(cells), images=tuple(images), label=label)

    @classmethod
    def from_table(cls, source: Algebra, target: Algebra,
                   table: dict[Elem, Elem], label: str = "") -> "Hom":
        return cls(source, target, table=dict(table), label=label)

    def __call__(self, x: Elem) -> Elem:
        self.source._check(x)
        if self._atom_map is not None:
            bits = 0
            for q, a in enumerate(self._atom_map):
                if x.data >> (a - 1) & 1:
                    bits |= 1 << q
            return Elem(self.target, bits)
        if self._table is not None:
            try:
                return self._table[x]
            except KeyError:
                raise HomDomainError("element outside the table domain") from None
        selected = [i for i, c in enumerate(self._cells) if c.leq(x)]
        if self.source.join(self._cells[i] for i in selected) != x:
            raise HomDomainError("element outside the generated subalgebra")
        return self.target.join(self._images[i] for i in selected)

    def domain_elements(self) -> Iterator[Elem]:
        """Every element the homomorphism is defined on (finite domains only)."""
        if self._atom_map is not None:
            yield from self.source.elements()
        elif self._table is not None:
            yield from self._table
        else:
            n = len(self._cells)
            if n > 20:
                raise AlgebraError("domain too large to enumerate")
            for mask in range(1 << n):
                yield self.source.join_cells(self._cells, mask)

    def random_domain_elem(self, rng: random.Random) -> Elem:
        if self._atom_map is not None:
            return self.source.random_elem(rng)
        if self._table is not None:
            return rng.choice(sorted(self._table, key=self.source.sort_key))
        return self.source.join([c for c in self._cells if rng.random() < 0.5])


@dataclass(frozen=True, slots=True)
class HomCheck:
    """Outcome of a homomorphism check, with a violating pair on failure."""

    ok: bool
    pairs_checked: int
    axiom: str = ""
    witness: tuple[Elem, Elem] | None = None
    lhs: Elem | None = None
    rhs: Elem | None = None


def check_homomorphism(h: Hom, exhaustive: bool = False, trials: int = 200,
                       rng: random.Random | None = None) -> HomCheck:
    """Check meet, disjoint-sum, and unit preservation on element pairs.

    Exhaustive mode walks every pair of the (finite) domain; sampled mode
    draws ``trials`` pairs.  A passing verdict also asserts finite-join
    preservation on the same pairs, which must follow from the axioms.
    """
    if exhaustive and h.source.kind == POWERSET and h.source.atom_count > 12:
        raise AlgebraError("exhaustive checks are capped at 12 source atoms")
    one_img = h(h.source.one)
    if one_img != h.target.one:
        return HomCheck(False, 0, "unit", (h.source.one, h.source.one),
                        one_img, h.target.one)
    if exhaustive:
        pool = list(h.domain_elements())
        pairs: Iterable[tuple[Elem, Elem]] = ((x, y) for x in pool for y in pool)
    else:
        rng = rng or random.Random(0)
        pairs = ((h.random_domain_elem(rng), h.random_domain_elem(rng))
                 for _ in range(trials))
    checked = 0
    for x, y in pairs:
        checked += 1
        hx, hy = h(x), h(y)
        got = h(x & y)
        want = hx & hy
        if got != want:
            return HomCheck(False, checked, "meet", (x, y), got, want)
        got = h(x ^ y)
        want = hx ^ hy
        if got != want:
            return HomCheck(False, checked, "disjoint-sum", (x, y), got, want)
        got = h(x | y)
        want = hx | hy
        if got != want:
            return HomCheck(False, checked, "join", (x, y), got, want)
    return HomCheck(True, checked)
