"""Bands of atom-model Riesz spaces and their Boolean algebra.

In an atom-coordinate space every band is the set of vectors supported
inside a fixed atom subset, so the bands of an n-dimensional atom model
are the elements of P(n), ``band_algebra(n)``.  A band is held as that
element, and the band lattice operations are the algebra's own: v lies in
band b exactly when ``principal_band(v).leq(b)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache

from .algebra import Algebra, AlgebraError, Elem, MAX_ATOMS, powerset
from .free_product import FreeProduct
from .tensor import AtomVector


def principal_band(f: AtomVector) -> Elem:
    """The smallest band containing f: the element of
    ``band_algebra(len(f.space))`` whose atoms are the positions of f's
    nonzero coordinates."""
    mask = sum(1 << i for i, a in enumerate(f.values) if a)
    return band_algebra(len(f.space)).from_atom_mask(mask)


def bands_disjoint(f: AtomVector, g: AtomVector) -> bool:
    """Whether the principal bands of f and g are disjoint, i.e. every
    member of one is lattice-disjoint from every member of the other;
    in the atom model they meet in zero."""
    if f.space != g.space:
        raise AlgebraError("vectors from different spaces")
    return (principal_band(f) & principal_band(g)).is_zero()


@cache
def band_algebra(n: int) -> Algebra:
    """The Boolean algebra of bands of an n-dimensional atom model, realized
    as the powerset algebra on n atoms; built once for each n."""
    return powerset(n, name=f"B({n})")


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
