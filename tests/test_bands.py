import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balg.algebra import AlgebraError
from balg import bands, tensor
from balg.config import parse_config
from balg.suites import SUITES, suite_rng
from conftest import ones, rationals, vector

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"


def disjoint_pair(space, rng):
    v = tensor.random_vector(space, rng)
    w = tensor.random_vector(space, rng)
    cut = rng.getrandbits(len(space))
    v = tensor.AtomVector(space, tuple(a if cut >> i & 1 else Fraction(0)
                                       for i, a in enumerate(v.values)))
    w = tensor.AtomVector(space, tuple(Fraction(0) if cut >> i & 1 else a
                                       for i, a in enumerate(w.values)))
    return v, w


class TestPrincipalBand:
    def test_examples(self):
        b3 = bands.band_algebra(3)
        f = vector((1, 2, 3), [2, 0, 3])
        assert bands.principal_band(f) == b3.subset([1, 3])
        assert bands.principal_band(tensor.zeros((1, 2, 3))) == b3.subset([])
        assert bands.principal_band(ones((1, 2, 3))) == b3.subset([1, 2, 3])
        assert bands.principal_band(f).alg == b3

    @given(st.integers(1, 6).flatmap(lambda n: st.lists(rationals(), min_size=n, max_size=n)))
    def test_smallest_band_containing_f(self, values):
        """f lies in exactly the bands above its principal band: among all
        of P(n), a band holds f iff f is zero off its atoms."""
        n = len(values)
        f = vector(range(1, n + 1), values)
        band = bands.principal_band(f)
        for other in bands.band_algebra(n).elements():
            holds_f = all(a == 0 or other.contains(i + 1) for i, a in enumerate(values))
            assert band.leq(other) == holds_f


class TestDisjointBands:
    def test_examples(self):
        assert bands.bands_disjoint(vector((1, 2, 3), [1, 0, 0]),
                                    vector((1, 2, 3), [0, 0, 5]))
        assert not bands.bands_disjoint(vector((1, 2, 3), [1, 1, 0]),
                                        vector((1, 2, 3), [0, 1, 0]))

    def test_lattice_disjoint_implies_band_disjoint(self):
        rng = random.Random(1)
        space = (1, 2, 3, 4)
        for _ in range(500):
            v, w = disjoint_pair(space, rng)
            assert v.abs().meet(w.abs()).is_zero()
            assert bands.bands_disjoint(v, w)

    def test_members_stay_disjoint(self):
        rng = random.Random(2)
        space = (1, 2, 3, 4)
        for _ in range(100):
            v, w = disjoint_pair(space, rng)
            bv, bw = bands.principal_band(v), bands.principal_band(w)
            assert (bv & bw).is_zero()
            h1 = tensor.AtomVector(space, tuple(
                a if bv.contains(l) else Fraction(0)
                for l, a in zip(space, tensor.random_vector(space, rng).values)))
            h2 = tensor.AtomVector(space, tuple(
                a if bw.contains(l) else Fraction(0)
                for l, a in zip(space, tensor.random_vector(space, rng).values)))
            assert bands.principal_band(h1).leq(bv) and bands.principal_band(h2).leq(bw)
            assert h1.abs().meet(h2.abs()).is_zero()


class TestBandAlgebra:
    def test_counts(self):
        for n in (1, 3, 10):
            elements = list(bands.band_algebra(n).elements())
            assert len(set(elements)) == 1 << n
            assert {x.alg for x in elements} == {bands.band_algebra(n)}
        assert bands.band_algebra(3).atom_count == 3

    def test_caps(self):
        with pytest.raises(AlgebraError):
            bands.band_algebra(17)
        with pytest.raises(AlgebraError):
            bands.band_algebra(0)


def test_suite_catches_a_principal_band_that_drops_its_top_atom(monkeypatch):
    """With the highest atom cut from every principal band, a singleton
    band off f's support counts as below f's band, and "ideal and band
    members coincide" fails on configs/default.json at trials 15; so does
    "overlapping supports share a band direction", which reads its
    precondition from the coordinates."""
    principal_band = bands.principal_band

    def drop_top(f):
        band = principal_band(f)
        mask = band.alg.atom_mask(band)
        return band.alg.from_atom_mask(mask & ~(1 << mask.bit_length() >> 1))

    monkeypatch.setattr(bands, "principal_band", drop_top)
    cfg = parse_config(json.dumps({**json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8")),
                                   "trials": 15}))
    suite = SUITES["bands"](cfg, suite_rng(cfg.seed, "bands"))
    assert not suite.ok
    tally = suite.tally()
    assert tally["ideal and band members coincide"]["failed"] > 0
    assert tally["overlapping supports share a band direction"]["failed"] > 0


class TestBandProducts:
    def test_example_2x3(self):
        verdict = bands.compare_band_products(2, 3)
        assert verdict.ok and verdict.atoms_each == 6
        assert len(verdict.atom_bijection) == 6

    def test_degenerate_and_square(self):
        assert bands.compare_band_products(1, 5).ok
        assert bands.compare_band_products(4, 4).ok

    def test_cap(self):
        with pytest.raises(AlgebraError):
            bands.compare_band_products(5, 4)
