"""Bands of atom-model Riesz spaces and their Boolean algebra.

In an atom-coordinate space every band is the set of vectors supported
inside a fixed atom subset, so the band lattice is the powerset lattice of
the atom set.  That identification is itself verified by enumeration at
small dimension in the test suites; here it is structural.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .algebra import Algebra, AlgebraError, Elem, MAX_ATOMS, powerset
from .free_product import FreeProduct
from .tensor import AtomVector


@dataclass(frozen=True, slots=True)
class Band:
    """A band, stored extensionally as the atom subset carrying it."""

    space: tuple
    members: frozenset

    def __post_init__(self):
        if not self.members <= set(self.space):
            raise ValueError("band members must be atoms of the space")

    def meet(self, other: "Band") -> "Band":
        self._match(other)
        return Band(self.space, self.members & other.members)

    def join(self, other: "Band") -> "Band":
        self._match(other)
        return Band(self.space, self.members | other.members)

    def complement(self) -> "Band":
        return Band(self.space, frozenset(self.space) - self.members)

    def leq(self, other: "Band") -> bool:
        self._match(other)
        return self.members <= other.members

    def contains(self, v: AtomVector) -> bool:
        if v.space != self.space:
            raise ValueError("vector from a different space")
        return v.support_labels() <= self.members

    def _match(self, other: "Band") -> None:
        if self.space != other.space:
            raise ValueError("bands over different spaces")


def principal_band(f: AtomVector) -> Band:
    """The smallest band containing f: vectors supported inside supp(f)."""
    return Band(f.space, f.support_labels())


def bands_disjoint(f: AtomVector, g: AtomVector) -> bool:
    """Whether the principal bands of f and g are disjoint, i.e. every
    member of one is lattice-disjoint from every member of the other;
    in the atom model this is support disjointness."""
    if f.space != g.space:
        raise ValueError("vectors from different spaces")
    return not (f.support_labels() & g.support_labels())


def all_bands(space: tuple) -> list[Band]:
    out = []
    for r in range(len(space) + 1):
        for sub in combinations(space, r):
            out.append(Band(space, frozenset(sub)))
    return out


def band_algebra(n: int) -> Algebra:
    """The Boolean algebra of bands of an n-dimensional atom model, realized
    as the powerset algebra on n atoms."""
    return powerset(n, name=f"B({n})")


def band_to_elem(alg: Algebra, band: Band) -> Elem:
    return alg.subset(band.members)


def elem_to_band(space: tuple, x: Elem) -> Band:
    mask = x.alg.atom_mask(x)
    return Band(space, frozenset(i + 1 for i in range(x.alg.atom_count) if mask >> i & 1))


@dataclass(frozen=True, slots=True)
class BandProductCheck:
    ok: bool
    atoms_each: int
    detail: str
    atom_bijection: tuple = ()


def compare_band_products(n: int, m: int, pair_samples: int = 200,
                          rng: random.Random | None = None) -> BandProductCheck:
    """Contrast the band algebra of a tensor product with the free product
    of the band algebras, in finite dimension.

    Builds B(n) (x) B(m) as a free product and B(n*m) as a powerset and
    exhibits the Boolean isomorphism sending each rectangle of atoms to the
    matching atom pair; both sides have n*m atoms.  (With infinite
    dimensions the two sides differ, which the completeness certificates
    witness; finite dimension is the isomorphic regime.)
    """
    if n * m > MAX_ATOMS:
        raise AlgebraError(f"atom budget capped at {MAX_ATOMS}")
    rng = rng or random.Random(0)
    be = band_algebra(n)
    bf = band_algebra(m)
    fp = FreeProduct(be, bf)
    target = band_algebra(n * m)
    if fp.atom_count != n * m:
        return BandProductCheck(False, fp.atom_count, "free product atom count off")

    # rectangle of atoms (p, q) <-> atom (p - 1) * m + q of the target
    def to_target(x) -> Elem:
        mask = fp.atom_mask(x)
        return target.from_atom_mask(mask)

    bijection = []
    seen = set()
    for p in range(1, n + 1):
        for q in range(1, m + 1):
            img = to_target(fp.rect(be.subset([p]), bf.subset([q])))
            bijection.append(((p, q), img))
            seen.add(img)
    if len(seen) != n * m:
        return BandProductCheck(False, n * m, "atom map is not injective")
    for _ in range(pair_samples):
        x = fp.random_elem(rng)
        y = fp.random_elem(rng)
        if to_target(x & y) != (to_target(x) & to_target(y)):
            return BandProductCheck(False, n * m, "meet not preserved")
        if to_target(x ^ y) != (to_target(x) ^ to_target(y)):
            return BandProductCheck(False, n * m, "disjoint sum not preserved")
    if to_target(fp.one) != target.one:
        return BandProductCheck(False, n * m, "unit not preserved")
    return BandProductCheck(True, n * m, "Boolean isomorphic via the atom bijection",
                            tuple(bijection))
