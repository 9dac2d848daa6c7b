from fractions import Fraction

from hypothesis import strategies as st

from balg.algebra import Elem, finite_cofinite, powerset

P3 = powerset(3)
P4 = powerset(4)
FC = finite_cofinite()


def powerset_elems(alg):
    return st.integers(0, (1 << alg.atom_count) - 1).map(lambda bits: Elem(alg, bits))


def fincof_elems():
    """Small supports that overlap often, and sparse ones reaching 10**6."""
    naturals = st.one_of(st.integers(0, 9), st.integers(0, 10**6))
    return st.tuples(
        st.sampled_from(("fin", "cof")),
        st.frozensets(naturals, max_size=4),
    ).map(lambda t: Elem(FC, (t[0], tuple(sorted(t[1])))))


def rationals():
    return st.tuples(st.integers(-4, 4), st.integers(1, 3)).map(
        lambda t: Fraction(t[0], t[1]))
