"""Atom-coordinate model of finite-dimensional Archimedean Riesz spaces,
the tensor product of place-function spaces, and its isomorphism checks.

``AtomVector`` realizes a finite-dimensional space as exact-rational
coordinates over an atom index set; the tensor product of two such spaces is
the coordinate space over atom pairs with the pointwise product as the
canonical bimorphism.  This gives an independent model against which the
place-function construction over the free product is verified.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from .algebra import POWERSET, Algebra, AlgebraError
# bound here by name so that the perfbench tracer can patch it
from .algebra import refine_partition  # noqa: F401
from .free_product import FreeProduct
from . import places
from .places import PlaceFunction


@dataclass(frozen=True, slots=True, init=False)
class AtomVector:
    """Exact-rational coordinates over an atom index set.

    Built like ``Elem``: ``__init__`` checks the length and that every
    coordinate is exact, an int or a Fraction, and sets each slot once; it
    is frozen.
    """

    space: tuple
    values: tuple[Fraction, ...]

    def __init__(self, space: tuple, values: tuple[Fraction, ...]) -> None:
        if len(space) != len(values):
            raise AlgebraError("coordinate count must match the atom set")
        if not places._EXACT_TYPES.issuperset(map(type, values)):
            for c in values:
                places._exact(c)
        _vector_space(self, space)
        _vector_values(self, values)

    def _match(self, other: "AtomVector") -> None:
        if self.space != other.space:
            raise AlgebraError("vectors from different spaces")

    def __add__(self, other: "AtomVector") -> "AtomVector":
        self._match(other)
        return AtomVector(self.space, tuple(a + b for a, b in zip(self.values, other.values)))

    def scale(self, c) -> "AtomVector":
        c = Fraction(places._exact(c))
        return AtomVector(self.space, tuple(c * a for a in self.values))

    def meet(self, other: "AtomVector") -> "AtomVector":
        self._match(other)
        return AtomVector(self.space, tuple(min(a, b) for a, b in zip(self.values, other.values)))

    def join(self, other: "AtomVector") -> "AtomVector":
        self._match(other)
        return AtomVector(self.space, tuple(max(a, b) for a, b in zip(self.values, other.values)))

    def abs(self) -> "AtomVector":
        return AtomVector(self.space, tuple(abs(a) for a in self.values))

    def leq(self, other: "AtomVector") -> bool:
        self._match(other)
        return all(a <= b for a, b in zip(self.values, other.values))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.values)


_vector_space = AtomVector.space.__set__
_vector_values = AtomVector.values.__set__


def zeros(space: Sequence) -> AtomVector:
    return AtomVector(tuple(space), tuple(Fraction(0) for _ in space))


def indicator(space: Sequence, label) -> AtomVector:
    space = tuple(space)
    return AtomVector(space, tuple(Fraction(1 if l == label else 0) for l in space))


def atom_space(alg: Algebra) -> tuple:
    """Atom labels of a powerset algebra, 1-based."""
    return tuple(range(1, alg.atom_count + 1))


def pair_space(a: Algebra, b: Algebra) -> tuple:
    return tuple((p, q) for p in atom_space(a) for q in atom_space(b))


def random_vector(space: Sequence, rng: random.Random, positive: bool = False) -> AtomVector:
    """The draw of ``_sixths`` over 6: num/den per coordinate, num in
    [-4, 4] ([0, 4] when ``positive``) and den in [1, 3]."""
    return AtomVector(tuple(space), tuple(Fraction(u, 6) for u in _sixths(space, rng, positive)))


def _sixths(space: Sequence, rng: random.Random, positive: bool = False) -> list[int]:
    """Per coordinate a numerator, then a denominator, drawn and returned as
    integer numerators over 6, the lcm of the denominators 1-3."""
    return [(rng.randint(0, 4) if positive else rng.randint(-4, 4)) * (6 // rng.randint(1, 3))
            for _ in space]


# -- atom model of a place-function space --------------------------------------


def to_atom_model(f: PlaceFunction) -> AtomVector:
    """Coordinates of a place function over a finite atomic backend."""
    backend = f.backend
    labels, _ = _finite_atoms(backend)
    masks = [backend.atom_mask(x) for _, x in f.terms]
    d, nums = places._common(places._exact(c) for c, _ in f.terms)
    return AtomVector(labels, tuple(Fraction(v, d)
                                    for v in places._cell_sums(nums, masks, len(labels))))


def from_atom_model(backend, v: AtomVector) -> PlaceFunction:
    """Inverse of ``to_atom_model``."""
    labels, atoms = _finite_atoms(backend)
    if labels != v.space:
        raise AlgebraError("vector space does not match the backend's atoms")
    d, nums = places._common(v.values)
    return places.from_cell_values(backend, atoms, enumerate(nums), d)


def _finite_atoms(backend) -> tuple[tuple, object]:
    """The atom labels of a finite backend, and the cell payload whose cells
    are its atoms."""
    if isinstance(backend, Algebra):
        if backend.kind != POWERSET:
            raise AlgebraError(f"no finite atom model for {backend.name or backend.kind}")
        return atom_space(backend), (() if backend.is_trivial else backend.atoms())
    if isinstance(backend, FreeProduct):
        (_, left), (_, right) = _finite_atoms(backend.left), _finite_atoms(backend.right)
        return pair_space(backend.left, backend.right), (left, right)
    raise AlgebraError(f"no finite atom model for {backend!r}")


# -- the canonical bimorphisms --------------------------------------------------


def pure_tensor(e: AtomVector, f: AtomVector) -> AtomVector:
    """Pointwise-product bimorphism into the atom-pair space."""
    space = tuple((p, q) for p in e.space for q in f.space)
    vals = tuple(a * b for a in e.values for b in f.values)
    return AtomVector(space, vals)


def psi(fp: FreeProduct, f: PlaceFunction, g: PlaceFunction) -> PlaceFunction:
    """The double-sum bimorphism into place functions over the free product:
    coefficient products over rectangles of the two supports."""
    if f.backend != fp.left or g.backend != fp.right:
        raise AlgebraError("psi operands must live over the product's factors")
    return psi_terms(fp, f.terms, g.terms)


def psi_terms(fp: FreeProduct, f_terms, g_terms) -> PlaceFunction:
    """psi on raw disjoint-support representations (canonical or not).

    Because the supports on each side are pairwise disjoint, the double sum
    is constant on each cell of the product of the two coordinate
    partitions; evaluating there and canonicalizing equals canonicalizing
    the rectangle terms directly (the slow route kept in the tests).  Each
    side's cell values are integers over its own common denominator, so the
    products are integers over the product of the two.
    """
    f_terms = places._live_terms(fp.left, f_terms)
    g_terms = places._live_terms(fp.right, g_terms)
    if not f_terms or not g_terms:
        return places.zero(fp)
    lcells, lmasks, nl = fp.left.joint_cells([x for _, x in f_terms])
    rcells, rmasks, nr = fp.right.joint_cells([u for _, u in g_terms])
    df, fnums = places._common(c for c, _ in f_terms)
    dg, gnums = places._common(c for c, _ in g_terms)
    # the supports on each side are disjoint, so a cell's sum is its one coefficient
    lcoef = places._cell_sums(fnums, lmasks, nl)
    rcoef = places._cell_sums(gnums, rmasks, nr)
    width = len(rcells)
    values = ((i * width + j, a * b) for i, a in enumerate(lcoef)
              for j, b in enumerate(rcoef))
    return places.from_cell_values(fp, (lcells, rcells), values, df * dg)


def psi_terms_by_rectangles(fp: FreeProduct, f_terms, g_terms) -> PlaceFunction:
    """The double sum spelled out rectangle by rectangle (reference route)."""
    return places.canonicalize(fp, [(lam * gam, fp.rect(x, u))
                                    for lam, x in f_terms for gam, u in g_terms])


def split_representation(f: PlaceFunction, rng: random.Random):
    """A noncanonical representation of f: one support split in two."""
    if not f.terms:
        return []
    terms = list(f.terms)
    k = rng.randrange(len(terms))
    c, x = terms[k]
    y = f.backend.random_elem(rng)
    lo, hi = x & y, x & ~y
    if lo.is_zero() or hi.is_zero():
        return terms
    return terms[:k] + [(c, lo), (c, hi)] + terms[k + 1:]


# -- samplers for bimorphism checking --------------------------------------------


class PlaceSpace:
    """Random place functions over a backend, for generic verifiers."""

    def __init__(self, backend):
        self.backend = backend

    def random(self, rng):
        return places.random_place(self.backend, rng)

    def random_positive(self, rng):
        return places.random_place(self.backend, rng, positive=True)

    def random_disjoint_pair(self, rng):
        """Two positive elements with lattice meet zero, by support splitting."""
        splitter = self.backend.random_elem(rng)
        f = places.random_place(self.backend, rng, positive=True)
        g = places.random_place(self.backend, rng, positive=True)
        f1 = places.canonicalize(self.backend, [(c, x & splitter) for c, x in f.terms])
        f2 = places.canonicalize(self.backend, [(c, x & ~splitter) for c, x in g.terms])
        return f1, f2


class VectorSpace:
    """Random coordinate vectors over a fixed atom set."""

    def __init__(self, space: Sequence):
        self.space = tuple(space)

    def random(self, rng):
        return random_vector(self.space, rng)

    def random_positive(self, rng):
        return random_vector(self.space, rng, positive=True)

    def random_disjoint_pair(self, rng):
        v = random_vector(self.space, rng, positive=True)
        w = random_vector(self.space, rng, positive=True)
        cut = rng.getrandbits(len(self.space))
        v2 = AtomVector(self.space, tuple(a if cut >> i & 1 else Fraction(0)
                                          for i, a in enumerate(v.values)))
        w2 = AtomVector(self.space, tuple(Fraction(0) if cut >> i & 1 else a
                                          for i, a in enumerate(w.values)))
        return v2, w2


@dataclass(frozen=True, slots=True)
class BimorphismCheck:
    ok: bool
    law: str = ""
    witness: tuple = ()
    trials: int = 0


def verify_bimorphism(m: Callable, E, F, trials: int = 200,
                      rng: random.Random | None = None) -> BimorphismCheck:
    """Check bilinearity, scalar interchange, and slot disjointness of m.

    ``E`` and ``F`` draw the arguments of each slot; the values and m's
    images carry their own ``+``, ``scale``, ``meet`` and ``is_zero``.
    Disjointness: for positive disjoint f1, f2 and positive g, the images
    m(f1, g) and m(f2, g) must have meet zero, and symmetrically.  The image
    m(f1, g1) that three laws share is built once, so a passing trial calls
    m 11 times.
    """
    rng = rng or random.Random(0)
    checked = 0
    for _ in range(trials):
        checked += 1
        f1, f2 = E.random(rng), E.random(rng)
        g1, g2 = F.random(rng), F.random(rng)
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        m11 = m(f1, g1)
        if m(f1 + f2, g1) != m11 + m(f2, g1):
            return BimorphismCheck(False, "additive-left", (f1, f2, g1), checked)
        if m(f1, g1 + g2) != m11 + m(f1, g2):
            return BimorphismCheck(False, "additive-right", (f1, g1, g2), checked)
        scaled = m11.scale(lam)
        if m(f1.scale(lam), g1) != scaled or m(f1, g1.scale(lam)) != scaled:
            return BimorphismCheck(False, "scalar-interchange", (lam, f1, g1), checked)
        d1, d2 = E.random_disjoint_pair(rng)
        gpos = F.random_positive(rng)
        if not m(d1, gpos).meet(m(d2, gpos)).is_zero():
            return BimorphismCheck(False, "disjointness-left", (d1, d2, gpos), checked)
        e1, e2 = F.random_disjoint_pair(rng)
        fpos = E.random_positive(rng)
        if not m(fpos, e1).meet(m(fpos, e2)).is_zero():
            return BimorphismCheck(False, "disjointness-right", (fpos, e1, e2), checked)
    return BimorphismCheck(True, trials=checked)


# -- linear lattice maps ---------------------------------------------------------


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals by exact Gaussian elimination."""
    m = [list(row) for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][c]
        for i in range(rank + 1, len(m)):
            if m[i][c] != 0:
                fac = m[i][c] / pv
                for j in range(c, ncols):
                    m[i][j] -= fac * m[rank][j]
        rank += 1
        if rank == len(m):
            break
    return rank


@dataclass(frozen=True, slots=True)
class LinearLatticeMap:
    """Matrix map between atom-coordinate spaces (rows by target atom)."""

    source: tuple
    target: tuple
    matrix: tuple[tuple[Fraction, ...], ...]

    def apply(self, v: AtomVector) -> AtomVector:
        if v.space != self.source:
            raise AlgebraError("vector space does not match the map's source")
        vals = tuple(sum((a * x for a, x in zip(row, v.values) if a), Fraction(0))
                     for row in self.matrix)
        return AtomVector(self.target, vals)

    def riesz_shape(self) -> bool:
        """Each target atom reads at most one source atom, nonnegatively.

        For atom models this shape is equivalent to being a lattice-preserving
        positive linear map.
        """
        for row in self.matrix:
            nonzero = [a for a in row if a != 0]
            if len(nonzero) > 1 or any(a < 0 for a in nonzero):
                return False
        return True

    def preserves_abs(self, rng: random.Random) -> bool:
        """|Lv| = L|v| on 100 vectors v drawn as by ``random_vector``.

        Checked on integers: each row times the lcm of its denominators
        (``places._common``), against each draw of ``_sixths`` (v times 6).
        Both are positive scalings, which commute with |.| and with a linear
        map, so the verdict is the one over the rationals."""
        rows = [places._common(row)[1] for row in self.matrix]
        for _ in range(100):
            u = _sixths(self.source, rng)
            au = [abs(x) for x in u]
            if any(abs(sum(map(mul, row, u))) != sum(map(mul, row, au)) for row in rows):
                return False
        return True

    def rank(self) -> int:
        return rational_rank(self.matrix)


def map_from_images(source: Sequence, target: Sequence,
                    images: Sequence[AtomVector]) -> LinearLatticeMap:
    """Linear extension of prescribed basis images (one per source atom)."""
    source = tuple(source)
    target = tuple(target)
    matrix = tuple(tuple(images[j].values[t] for j in range(len(source)))
                   for t in range(len(target)))
    return LinearLatticeMap(source, target, matrix)


# -- the tensor isomorphism -------------------------------------------------------


class TensorMap:
    """The Riesz map from the atom-pair model onto place functions over the
    free product, determined by sending each pair indicator to the
    characteristic of its atom rectangle."""

    def __init__(self, a: Algebra, b: Algebra):
        self.fp = FreeProduct(a, b)
        self.fp._require_finite()
        self.space = pair_space(a, b)

    def apply(self, v: AtomVector) -> PlaceFunction:
        return from_atom_model(self.fp, v)

    def as_matrix(self) -> LinearLatticeMap:
        """Coordinates of the map against the product's own atom model."""
        images = [to_atom_model(self.apply(indicator(self.space, l)))
                  for l in self.space]
        return map_from_images(self.space, pair_space(self.fp.left, self.fp.right),
                               images)

    def preimage(self, h: PlaceFunction) -> AtomVector:
        """A preimage built from disjoint-rectangle decompositions.

        Each characteristic in h decomposes into disjoint rectangles; each
        rectangle pulls back to a pure tensor of factor characteristics, and
        the decomposition's join pulls back to the vector join.
        """
        out = zeros(self.space)
        for c, x in h.terms:
            piece = zeros(self.space)
            for r in self.fp._check(x).decompose_disjoint():
                va = to_atom_model(places.chi(r.left))
                vb = to_atom_model(places.chi(r.right))
                piece = piece.join(pure_tensor(va, vb))
            out = out + piece.scale(c)
        return out


@dataclass(frozen=True, slots=True)
class OntoInjectiveCheck:
    ok: bool
    rank: int
    dimension: int
    detail: str
    witnesses: tuple = ()


def verify_T_onto_and_injective(a: Algebra, b: Algebra,
                                rng: random.Random | None = None) -> OntoInjectiveCheck:
    """Onto via explicit preimages for a spanning set (the atoms, the unit
    and five random place functions); injective via exact rational rank of
    the coordinate matrix."""
    rng = rng or random.Random(0)
    t = TensorMap(a, b)
    fp = t.fp
    targets = [places.chi(x) for x in fp.atoms()]
    targets.append(places.unit(fp))
    for _ in range(5):
        targets.append(places.random_place(fp, rng))
    witnesses = []
    for h in targets:
        v = t.preimage(h)
        if t.apply(v) != h:
            return OntoInjectiveCheck(False, -1, len(t.space),
                                      "preimage fails to map back", ((h, v),))
        witnesses.append((h, v))
    mat = t.as_matrix()
    rank = mat.rank()
    if rank != len(t.space):
        return OntoInjectiveCheck(False, rank, len(t.space), "rank deficient")
    return OntoInjectiveCheck(True, rank, len(t.space),
                              "onto with explicit preimages; full rank",
                              tuple(witnesses))


@dataclass(frozen=True, slots=True)
class UniversalPropertyCheck:
    ok: bool
    detail: str
    induced: LinearLatticeMap | None = None


def verify_universal_property(a: Algebra, b: Algebra, psi_prime: Callable,
                              h_space: Sequence, trials: int = 100,
                              rng: random.Random | None = None) -> UniversalPropertyCheck:
    """Factor a verified bimorphism through the atom-pair model.

    First checks uniqueness: the indicator pure tensors have full rational
    rank, so they are a basis of the pair space and a linear map is fixed by
    its values on them.  Then builds the induced map on pair indicators and
    checks it reproduces the bimorphism on random pure tensors.
    """
    rng = rng or random.Random(0)
    space_a = atom_space(a)
    space_b = atom_space(b)
    pairs = pair_space(a, b)
    h_space = tuple(h_space)
    basis = [pure_tensor(indicator(space_a, p), indicator(space_b, q)).values
             for (p, q) in pairs]
    if rational_rank(basis) != len(pairs):
        return UniversalPropertyCheck(False, "indicator pure tensors are not a basis")
    images = [psi_prime(indicator(space_a, p), indicator(space_b, q))
              for (p, q) in pairs]
    induced = map_from_images(pairs, h_space, images)
    for _ in range(trials):
        v = random_vector(space_a, rng)
        w = random_vector(space_b, rng)
        if induced.apply(pure_tensor(v, w)) != psi_prime(v, w):
            return UniversalPropertyCheck(False, "induced map misses a pure tensor", induced)
    return UniversalPropertyCheck(True, "factorization and uniqueness verified", induced)
