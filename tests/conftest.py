import math
from fractions import Fraction

from hypothesis import strategies as st

from balg.algebra import Elem, finite_cofinite, powerset
from balg.free_product import Rectangle
from balg.tensor import AtomVector

# coefficients that are no int or Fraction, or are a bool, by name
INEXACT = {"float": 0.1, "fraction string": "1/2", "string": "abc", "nan": math.nan,
           "None": None, "inf": math.inf, "bool": True}

P3 = powerset(3)
P4 = powerset(4)
FC = finite_cofinite()


def forbidden(what):
    """A stand-in for a function that a work guard says is never called."""
    def call(*args):
        raise AssertionError(f"{what} was called")
    return call


def powerset_elems(alg):
    return st.integers(0, (1 << alg.atom_count) - 1).map(lambda bits: Elem(alg, bits))


def naturals():
    """Small naturals that coincide often, and sparse ones reaching 10**6."""
    return st.one_of(st.integers(0, 9), st.integers(0, 10**6))


def fincof_elems():
    """Small supports that overlap often, and sparse ones reaching 10**6."""
    return st.tuples(
        st.sampled_from(("fin", "cof")),
        st.frozensets(naturals(), max_size=4),
    ).map(lambda t: Elem(FC, (t[0], tuple(sorted(t[1])))))


def vector(space, values) -> AtomVector:
    """The atom vector with the given coordinates, read as rationals."""
    return AtomVector(tuple(space), tuple(Fraction(v) for v in values))


def ones(space) -> AtomVector:
    return vector(space, [1] * len(space))


def rationals():
    return st.tuples(st.integers(-4, 4), st.integers(1, 3)).map(
        lambda t: Fraction(t[0], t[1]))


def split_refine(one, parts):
    """Reference refinement: the atoms of the subalgebra ``parts`` generate,
    found by splitting the unit by each part in turn and keeping the nonzero
    cells, sorted by ``sort_key``."""
    cells = [] if one.is_zero() else [one]
    seen = set()
    for x in parts:
        if x in seen:
            continue
        seen.add(x)
        nxt = []
        for c in cells:
            inside = c & x
            outside = c & ~x
            if not inside.is_zero():
                nxt.append(inside)
            if not outside.is_zero():
                nxt.append(outside)
        cells = nxt
    cells.sort(key=one.alg.sort_key)
    return cells


def grid_elems(fp, left, right):
    """Elements built from up to three drawn rectangles, maybe complemented."""
    rects = st.lists(st.builds(Rectangle, left, right), max_size=3)
    return st.tuples(rects, st.booleans()).map(
        lambda t: ~fp.normalize(t[0]) if t[1] else fp.normalize(t[0]))


def partitions(alg, elems):
    """A partition of the unit in any cell order: the atoms of the
    subalgebra some drawn elements generate, shuffled."""
    return st.lists(elems, max_size=4).map(
        lambda xs: split_refine(alg.one, xs)).flatmap(st.permutations)


def flat(rows, width):
    """A grid's rows laid end to end, row i at bit i * width."""
    return sum(row << (i * width) for i, row in enumerate(rows))
