"""Boolean algebra backends: finite powersets and the finite-cofinite algebra.

Elements are immutable values with a unique representation per mathematical
element, so ``==`` decides mathematical equality.  That representation,
``Elem.data``, belongs to one kernel per backend kind, which ``Algebra``
picks once: ``_PowersetKernel`` keeps the bitset of the atoms below an
element, ``_FinCofKernel`` a (mode, sorted support) pair over the naturals.
The trivial algebra is P(0), whose one bitset, 0, is zero and unit.  No
``Elem`` or ``Algebra`` operation tests the kind, bar the guards refusing a
call that one kind does not support, such as ``subset``.

Each kernel has one n-ary join, behind ``Algebra.join``; one refinement of
partitions of the unit by point signatures, behind ``_meets``, after Paige
and Tarjan (SIAM J. Comput. 1987), on which ``refine_partition`` and
``free_product._joint_cells`` are built; and one point rule,
``point_cells``, behind ``Algebra.joint_cells``.  A finite family is decided
by finitely many points of the Stone space, which ``points.decisive`` lists
and ``points.holds`` reads membership at: the atoms of P(n), or each natural
the family names and the tail point, the ultrafilter of cofinite sets.
``joint_cells`` hands those points out as cells (the held atoms tuple on a
powerset, on which ``join_cells`` reads a mask as the bitset), with each
element's mask of them, and refines nothing.  A new backend kind takes one
kernel, one literal in the expression grammar and one config kind.

``Elem`` is a frozen, slotted dataclass whose ``__init__`` sets each slot
once through its member descriptor, skipping the frozen ``__setattr__``
guard; ``==``, ``hash`` and ``repr`` are the generated ones.  An
``Algebra`` builds its ``zero``, ``one`` and atoms once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_, xor
from typing import Iterable, Iterator, Sequence

POWERSET = "powerset"
FINITE_COFINITE = "finite_cofinite"

MAX_ATOMS = 16


class AlgebraError(ValueError):
    """Malformed descriptor, cross-algebra operand mix, or unsupported call."""


class _PowersetKernel:
    """P(n): an element is the bitmask of its atoms, atom i + 1 at bit i."""

    __slots__ = ("_atoms", "zero", "one")

    def __init__(self, atom_count: int):
        if not 0 <= atom_count <= MAX_ATOMS:
            raise AlgebraError(f"powerset atom count must be 0..{MAX_ATOMS}, got {atom_count}")
        self._atoms = atom_count
        self.zero = 0
        self.one = (1 << atom_count) - 1

    def join(self, data):
        return reduce(or_, data, 0)

    def meet(self, a, b):
        return a & b

    def complement(self, a):
        return a ^ self.one

    def leq(self, a, b):
        return a & b == a

    def contains(self, a, n: int) -> bool:
        return 1 <= n <= self._atoms and bool(a >> (n - 1) & 1)

    def sort_key(self, a):
        return ((a & -a).bit_length(), a)

    def random_elem(self, rng: random.Random):
        return rng.getrandbits(self._atoms)

    def point_index(self, cells):
        index = {p + 1: k for k, c in enumerate(cells) for p in range(self._atoms) if c >> p & 1}
        if sum(c.bit_count() for c in cells) != len(index) or len(index) != self._atoms:
            raise AlgebraError("the cells of an axis do not partition its atoms")
        return index, None

    def point_cells(self, data):
        """The atoms decide every family: None, for the algebra's own atoms
        as the cells, and each part's bitset as its mask."""
        return None, data

    def meets(self, partitions):
        """Cells met pairwise as bitsets, keeping only the nonzero meets."""
        bits = [(self.one, ())] if self._atoms else []  # P(0) has no nonzero cell
        for part in partitions:
            bits = [(m, src + (k,)) for c, src in bits for k, p in enumerate(part) if (m := c & p)]
        bits.sort(key=lambda t: self.sort_key(t[0]))
        return [m for m, _ in bits], [src for _, src in bits]


class _FinCofKernel:
    """Finite and cofinite sets of naturals: ("fin", support) is the set
    support, ("cof", support) all naturals but it; supports are sorted."""

    __slots__ = ()
    zero = ("fin", ())
    one = ("cof", ())

    def __init__(self, atom_count: int):
        if atom_count != 0:
            raise AlgebraError("finite_cofinite has no atom count")

    def join(self, data):
        """The union of the fin supports when no member is cofinite, else
        cof of what every cof member leaves out and no fin member holds."""
        held = set().union(*(s for mode, s in data if mode == "fin"))
        cofs = [s for mode, s in data if mode == "cof"]
        if not cofs:
            return ("fin", tuple(sorted(held)))
        left_out = set(cofs[0]).intersection(*cofs[1:]) - held
        return ("cof", tuple(sorted(left_out)))

    def meet(self, a, b):
        (ma, sa), (mb, sb) = a, b
        sa, sb = set(sa), set(sb)
        if ma == mb:
            return (ma, tuple(sorted(sa & sb if ma == "fin" else sa | sb)))
        return ("fin", tuple(sorted(sa - sb if ma == "fin" else sb - sa)))

    def complement(self, a):
        mode, support = a
        return ("cof" if mode == "fin" else "fin", support)

    def leq(self, a, b):
        (ma, sa), (mb, sb) = a, b
        if ma == "fin":
            return set(sa) <= set(sb) if mb == "fin" else not set(sa) & set(sb)
        return mb == "cof" and set(sb) <= set(sa)

    def contains(self, a, n: int) -> bool:
        mode, support = a
        return n >= 0 and ((n in support) if mode == "fin" else (n not in support))

    def sort_key(self, a):
        mode, support = a
        return (0, support) if mode == "fin" else (1, support)

    def random_elem(self, rng: random.Random):
        size = rng.randint(0, 4)
        support = tuple(sorted(rng.sample(range(12), size)))
        return (rng.choice(("fin", "cof")), support)

    def point_index(self, cells):
        tails = [k for k, (mode, _) in enumerate(cells) if mode == "cof"]
        if len(tails) != 1:
            raise AlgebraError(f"a finite_cofinite axis has {len(tails)} cofinite cells, not one")
        index = {n: k for k, (mode, support) in enumerate(cells) if mode == "fin" for n in support}
        if sum(len(support) for mode, support in cells if mode == "fin") != len(index):
            raise AlgebraError("a point lies in two fin cells of an axis")
        if index.keys() != set(cells[tails[0]][1]):
            raise AlgebraError("the fin cells of an axis are not what its cofinite cell leaves out")
        return index, tails[0]

    def point_cells(self, data):
        """The naturals the parts name, in increasing order, then the tail:
        cell k is fin{the k-th named natural} and the last cell is cof of them
        all.  A fin part's mask is the bits of its own points; a cof part's is
        every bit but those, the tail's included."""
        named = sorted(set().union(*(support for _, support in data)))
        bit = {n: 1 << k for k, n in enumerate(named)}
        every = (2 << len(named)) - 1
        masks = []
        for mode, support in data:
            mask = 0
            for n in support:
                mask |= bit[n]
            masks.append(mask if mode == "fin" else every ^ mask)
        cells = [("fin", (n,)) for n in named]
        cells.append(("cof", tuple(named)))
        return cells, masks

    def meets(self, partitions):
        """Named points grouped by their signatures, read off each partition's
        ``point_index``, so no two cells are ever met; the naturals named
        nowhere share the signature of the cof cells and make the tail cell."""
        indexes = [self.point_index(part) for part in partitions]
        named = sorted(set().union(*(index for index, _ in indexes)))
        signatures = zip(*([index.get(n, tail) for n in named] for index, tail in indexes))
        groups: dict[tuple[int, ...], list[int]] = {}
        for n, sig in zip(named, signatures):
            groups.setdefault(sig, []).append(n)
        # disjoint supports sort by their least members, and the groups were
        # opened in increasing order of those, so the fin cells are in key order
        cells = [("fin", tuple(points)) for points in groups.values()]
        cells.append(("cof", tuple(named)))
        return cells, [*groups, tuple(tail for _, tail in indexes)]


_KERNELS = {POWERSET: _PowersetKernel, FINITE_COFINITE: _FinCofKernel}


@dataclass(frozen=True, slots=True)
class Algebra:
    """Descriptor of a Boolean algebra backend.

    ``powerset`` is the algebra of subsets of ``atom_count`` points (atom
    indices are 1-based in text form); ``finite_cofinite`` is the algebra of
    finite and cofinite subsets of the naturals.  The trivial algebra, the
    one-element algebra in which 0 = 1, is the powerset of no points, P(0).
    The ``name`` is a display label and does not participate in equality.
    The algebra holds its ``zero``, ``one``, atoms and ``is_trivial``, fixed
    once with it; like the kernel, they take no part in equality or ``repr``.
    """

    kind: str
    atom_count: int = 0
    name: str = field(default="", compare=False)
    kernel: _PowersetKernel | _FinCofKernel = field(init=False, compare=False, repr=False)
    zero: "Elem" = field(init=False, compare=False, repr=False)
    one: "Elem" = field(init=False, compare=False, repr=False)
    is_trivial: bool = field(init=False, compare=False, repr=False)
    _atoms: tuple["Elem", ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in tuple(_KERNELS):
            raise AlgebraError(f"unknown algebra kind {self.kind!r}")
        kernel = _KERNELS[self.kind](self.atom_count)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "zero", Elem(self, kernel.zero))
        object.__setattr__(self, "one", Elem(self, kernel.one))
        object.__setattr__(self, "is_trivial", kernel.zero == kernel.one)
        atoms = tuple(Elem(self, 1 << i) for i in range(self.atom_count))
        object.__setattr__(self, "_atoms", atoms)

    # -- element constructors ------------------------------------------------

    def subset(self, atoms: Iterable[int]) -> "Elem":
        """Powerset element from 1-based atom indices."""
        if self.kind != POWERSET or self.is_trivial:
            raise AlgebraError("subset literals require a nontrivial powerset algebra")
        bits = 0
        for a in _integers(atoms):
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
        return self._atoms

    def atom_mask(self, x: "Elem") -> int:
        """Bitmask of atoms below x (powerset only)."""
        if self.kind != POWERSET or self.is_trivial:
            raise AlgebraError("atom masks require a nontrivial powerset algebra")
        self._check(x)
        return x.data  # type: ignore[return-value]

    def from_atom_mask(self, bits: int) -> "Elem":
        if self.kind != POWERSET or self.is_trivial:
            raise AlgebraError("atom masks require a nontrivial powerset algebra")
        if type(bits) is not int:
            raise AlgebraError(f"atom masks are ints, not {type(bits).__name__}")
        if not 0 <= bits <= self.kernel.one:
            raise AlgebraError(f"atom mask {bits} is outside [0, 2^{self.atom_count})")
        return Elem(self, bits)

    def elements(self) -> Iterator["Elem"]:
        """All elements (finite algebras only)."""
        if self.kind != POWERSET:
            raise AlgebraError("finite_cofinite is infinite")
        for bits in range(1 << self.atom_count):
            yield Elem(self, bits)

    def join(self, xs: Iterable["Elem"]) -> "Elem":
        """Join of a finite family (zero if empty), members unchecked."""
        xs = list(xs)
        if len(xs) == 1:
            return xs[0]
        return Elem(self, self.kernel.join([x.data for x in xs]))

    def sup(self, xs: Iterable["Elem"]) -> "Elem":
        """Join of a nonempty finite set of elements."""
        xs = [self._check(x) for x in xs]
        if not xs:
            raise AlgebraError("sup of an empty collection")
        return self.join(xs)

    def random_elem(self, rng: random.Random) -> "Elem":
        """A uniform powerset element, or a fin or cof set of up to four naturals below 12."""
        return Elem(self, self.kernel.random_elem(rng))

    def sort_key(self, x: "Elem"):
        """Deterministic total order on elements; cells sort fin-before-cof."""
        return self.kernel.sort_key(x.data)

    def joint_cells(self, parts: Sequence["Elem"]):
        """The points that decide ``parts`` as cells, each part's mask of the
        cells under it, and the number of cells.

        The kernel's ``point_cells`` gives them with no refinement: on a
        powerset the cells are the held atoms tuple and a mask is the part's
        bitset; on finite_cofinite one fin singleton per named natural, in
        increasing order, then the tail.  The cells partition the unit and
        may be finer than the atoms of the subalgebra the parts generate.
        """
        cells, masks = self.kernel.point_cells([x.data for x in parts])
        cells = self._atoms if cells is None else [Elem(self, c) for c in cells]
        return cells, masks, len(cells)

    def join_cells(self, cells: Sequence["Elem"], mask: int) -> "Elem":
        """Join of the cells whose indices are the set bits of ``mask``; on
        the held atoms tuple, compared by identity, the mask is the bitset."""
        # all empty tuples are one object: an algebra with no atoms joins
        if cells is self._atoms and cells:
            return Elem(self, mask)
        return self.join(c for i, c in enumerate(cells) if mask >> i & 1)

    def _check(self, x: "Elem") -> "Elem":
        if not isinstance(x, Elem):
            raise AlgebraError(f"{type(x).__name__} used as an element of {self.name or self.kind}")
        if x.alg is not self and x.alg != self:
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


def _integers(items: Iterable[int]) -> list[int]:
    items = list(items)
    for n in items:
        if type(n) is not int:
            raise AlgebraError(f"set members must be ints, not {type(n).__name__}")
    return items


def _support(items: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted(set(_integers(items))))
    if out and out[0] < 0:
        raise AlgebraError("finite_cofinite supports are sets of naturals")
    return out


@dataclass(frozen=True, slots=True, init=False)
class Elem:
    """An element of a backend algebra, ``data`` in its kernel's format.

    Frozen: ``__init__`` sets each slot once through its descriptor, and any
    later assignment raises ``FrozenInstanceError``.
    """

    alg: Algebra
    data: int | tuple[str, tuple[int, ...]]

    def __init__(self, alg: Algebra, data) -> None:
        _elem_alg(self, alg)
        _elem_data(self, data)

    def _match(self, other: "Elem") -> None:
        if not isinstance(other, Elem) or (other.alg is not self.alg and other.alg != self.alg):
            raise AlgebraError("operands belong to different algebras")

    def is_zero(self) -> bool:
        return self.data == self.alg.kernel.zero

    def __and__(self, other: "Elem") -> "Elem":
        self._match(other)
        return Elem(self.alg, self.alg.kernel.meet(self.data, other.data))

    def __invert__(self) -> "Elem":
        return Elem(self.alg, self.alg.kernel.complement(self.data))

    def __or__(self, other: "Elem") -> "Elem":
        self._match(other)
        return Elem(self.alg, self.alg.kernel.join((self.data, other.data)))

    def __xor__(self, other: "Elem") -> "Elem":
        # disjoint sum (x & ~y) | (~x & y)
        return (self & ~other) | (~self & other)

    def leq(self, other: "Elem") -> bool:
        """Boolean order: x <= y iff x & y == x."""
        self._match(other)
        return self.alg.kernel.leq(self.data, other.data)

    def rel_complement(self, other: "Elem") -> "Elem":
        """Complement of self & other relative to self: x & ~(x & y)."""
        return self & ~(self & other)

    def contains(self, n: int) -> bool:
        """Pointwise membership: of the 1-based atoms, or of the naturals."""
        return self.alg.kernel.contains(self.data, n)


_elem_alg = Elem.alg.__set__
_elem_data = Elem.data.__set__


def point_index(alg: Algebra, cells: Sequence[Elem]) -> tuple[dict[int, int], int | None]:
    """Where the points of one axis lie among its cells.

    Returns a map from each named point to the index of the cell holding it,
    and the index of the tail cell.  On a powerset axis the named points are
    the atoms (1-based) and there is no tail (None).  On a finite_cofinite
    axis they are the members of the fin cells, and every other natural lies
    in the one cof cell, the tail.  Raises AlgebraError unless the cells
    partition the unit.
    """
    return alg.kernel.point_index([c.data for c in cells])


def _meets(alg: Algebra, partitions) -> tuple[list[Elem], list[tuple[int, ...]]]:
    """Common refinement of partitions of the unit, sorted by ``sort_key``.

    Its cells are the nonzero meets taking one cell from each partition;
    beside each cell goes its signature, the index of the cell it came from
    in each one.  The kernel's ``meets`` finds them.
    """
    cells, signatures = alg.kernel.meets([[c.data for c in part] for part in partitions])
    return [Elem(alg, data) for data in cells], signatures


def refine_partition(one: Elem, parts: Sequence[Elem]) -> list[Elem]:
    """Atoms of the finite subalgebra generated by ``parts``.

    The common refinement of the two-cell partitions ``(x, ~x)``: all the
    nonzero signed meets of the parts, sorted by ``sort_key``.  The
    partitions are formed on kernel data, so no ``~x`` is built as an element.
    """
    alg = one.alg
    kernel = alg.kernel
    cells, _ = kernel.meets([(x.data, kernel.complement(x.data)) for x in parts])
    return [Elem(alg, data) for data in cells]


# -- homomorphisms -----------------------------------------------------------


class HomDomainError(AlgebraError):
    """Element outside the subalgebra a homomorphism is defined on."""


class Hom:
    """A (claimed) Boolean homomorphism between two backends.

    Three backing strategies:

    * ``atom_map`` -- total function from target atoms to source atoms; the
      image of x is exactly the set of target atoms whose image atom lies in x
      (powerset-to-powerset only, checked when built, so always a genuine
      homomorphism); held as ``atom_map``, None for the other backings;
    * ``generator images`` -- images prescribed on a finite generating set and
      extended over the generated subalgebra by signed meets;
    * ``table`` -- an explicit element table, used for negative-control
      fixtures that need not be homomorphisms at all.
    """

    __slots__ = ("source", "target", "atom_map", "_cells", "_images", "_table")

    def __init__(self, source: Algebra, target: Algebra, *, atom_map=None,
                 cells=None, images=None, table=None):
        # an atom map, the backing a Hom given no other has, is checked here
        if atom_map is not None or (cells is None and table is None):
            if source.kind != POWERSET or target.kind != POWERSET:
                raise AlgebraError("atom maps require powerset backends")
            if not isinstance(atom_map, Sequence):
                raise AlgebraError(f"an atom map is a sequence, not {type(atom_map).__name__}")
            if len(atom_map) != target.atom_count:
                raise AlgebraError("atom map must cover every target atom")
            for a in atom_map:
                if type(a) is not int:
                    raise AlgebraError(f"atom map values are ints, not {type(a).__name__}")
                if not 1 <= a <= source.atom_count:
                    raise AlgebraError(f"atom map value {a} outside source atoms")
            atom_map = tuple(atom_map)
        self.source = source
        self.target = target
        self.atom_map = atom_map
        self._cells = cells
        self._images = images
        self._table = table

    @classmethod
    def from_atom_map(cls, source: Algebra, target: Algebra,
                      atom_map: Sequence[int]) -> "Hom":
        """atom_map[q] is the 1-based source atom assigned to target atom q+1,
        checked by the constructor, which every atom-map ``Hom`` passes."""
        return cls(source, target, atom_map=atom_map)

    @classmethod
    def identity(cls, alg: Algebra) -> "Hom":
        return cls.from_atom_map(alg, alg, range(1, alg.atom_count + 1))

    @classmethod
    def from_generator_images(cls, source: Algebra, target: Algebra,
                              pairs: Sequence[tuple[Elem, Elem]]) -> "Hom":
        """Extend prescribed generator images over the generated subalgebra.

        The domain cells are the atoms of the subalgebra generated by the
        generator elements, refined here and not read off ``joint_cells``,
        whose finer point cells would widen the domain past that subalgebra;
        each cell's image is the matching signed meet of the generator images.
        """
        for g, img in pairs:
            source._check(g)
            target._check(img)
        cells = refine_partition(source.one, [g for g, _ in pairs])
        images = [reduce(and_, (gi if c.leq(g) else ~gi for g, gi in pairs), target.one)
                  for c in cells]
        return cls(source, target, cells=tuple(cells), images=tuple(images))

    @classmethod
    def from_table(cls, source: Algebra, target: Algebra,
                   table: dict[Elem, Elem]) -> "Hom":
        return cls(source, target, table=dict(table))

    def __call__(self, x: Elem) -> Elem:
        self.source._check(x)
        if self.atom_map is not None:
            return Elem(self.target, sum(1 << q for q, a in enumerate(self.atom_map)
                                         if x.data >> (a - 1) & 1))
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
        if self.atom_map is not None:
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
        if self.atom_map is not None:
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
        for axiom, op in (("meet", and_), ("disjoint-sum", xor), ("join", or_)):
            got, want = h(op(x, y)), op(hx, hy)
            if got != want:
                return HomCheck(False, checked, axiom, (x, y), got, want)
    return HomCheck(True, checked)
