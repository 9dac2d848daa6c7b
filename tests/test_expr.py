import random

import pytest

from balg.expr import (ExprError, elem_text, grid_dict, parse_element,
                       parse_place, place_text, rect_text, rectform_from_grid)
from balg.free_product import FreeProduct
from balg import places
from conftest import FC, P3


class TestElementGrammar:
    def test_literals(self):
        assert parse_element(P3, "{1,3}") == P3.subset([1, 3])
        assert parse_element(P3, "0") == P3.zero
        assert parse_element(P3, "1") == P3.one
        assert parse_element(FC, "fin{0,2}") == FC.fin([0, 2])
        assert parse_element(FC, "cof{1}") == FC.cof([1])
        assert parse_element(FC, "fin{}") == FC.zero

    def test_operators(self):
        assert parse_element(P3, "{1,2} & {2,3}") == P3.subset([2])
        assert parse_element(P3, "{1} | {3}") == P3.subset([1, 3])
        assert parse_element(P3, "!{1}") == P3.subset([2, 3])
        assert parse_element(P3, "{1,2} (+) {2,3}") == P3.subset([1, 3])

    def test_precedence_not_meet_dsum_join(self):
        # ! > & > (+) > |
        assert parse_element(P3, "!{1} & {1,2}") == P3.subset([2])
        got = parse_element(P3, "{1} (+) {1,2} & {2,3}")
        assert got == P3.subset([1]) ^ (P3.subset([1, 2]) & P3.subset([2, 3]))
        got = parse_element(P3, "{1} | {2} (+) {2,3}")
        assert got == P3.subset([1]) | (P3.subset([2]) ^ P3.subset([2, 3]))

    def test_parentheses(self):
        got = parse_element(P3, "({1} | {2}) & {2,3}")
        assert got == P3.subset([2])

    def test_malformed(self):
        for text in ("{1,", "{1} &", "fin{1", "{1} @ {2}", "", "(({1})"):
            with pytest.raises(ExprError):
                parse_element(P3 if "fin" not in text else FC, text)

    def test_literal_algebra_mismatch(self):
        with pytest.raises(ExprError):
            parse_element(P3, "fin{0}")
        with pytest.raises(ExprError):
            parse_element(FC, "{1}")
        with pytest.raises(Exception):
            parse_element(P3, "{7}")

    def test_rect_literal(self):
        fp = FreeProduct(P3, FC)
        got = parse_element(fp, "rect({1,2},cof{0})")
        assert got == fp.rect(P3.subset([1, 2]), FC.cof([0]))
        got = parse_element(fp, "!rect({1},fin{0}) | 0")
        assert got == ~fp.rect(P3.subset([1]), FC.fin([0]))

    def test_rect_outside_product_rejected(self):
        with pytest.raises(ExprError):
            parse_element(P3, "rect({1},{2})")


class TestSerialization:
    def test_elem_text_roundtrip(self):
        rng = random.Random(0)
        for alg in (P3, FC):
            for _ in range(200):
                x = alg.random_elem(rng)
                assert parse_element(alg, elem_text(x)) == x

    def test_canonical_constants(self):
        assert elem_text(P3.zero) == "0"
        assert elem_text(P3.one) == "1"
        assert elem_text(FC.fin([])) == "0"
        assert elem_text(FC.cof([])) == "1"

    def test_rect_text_roundtrip(self):
        rng = random.Random(1)
        for fp in (FreeProduct(P3, P3), FreeProduct(FC, FC), FreeProduct(P3, FC)):
            for _ in range(100):
                x = fp.random_elem(rng)
                assert parse_element(fp, rect_text(x)) == x

    def test_grid_roundtrip(self):
        rng = random.Random(2)
        fp = FreeProduct(FC, FC)
        for _ in range(100):
            x = fp.random_elem(rng)
            assert rectform_from_grid(fp, grid_dict(x)) == x

    def test_place_text_roundtrip(self):
        rng = random.Random(3)
        for backend in (P3, FC):
            for _ in range(150):
                f = places.random_place(backend, rng)
                assert parse_place(backend, place_text(f)) == f

    def test_place_text_style(self):
        f = places.canonicalize(P3, [(2, P3.subset([1, 2])), (3, P3.subset([3]))])
        assert place_text(f) == "2*chi({1,2}) + 3*chi({3})"
        assert place_text(places.zero(P3)) == "0"

    def test_place_grammar(self):
        from fractions import Fraction

        f = parse_place(P3, "2*chi({1,2}) + 3*chi({2,3})")
        assert f == places.add_refine(
            places.scale(2, places.chi(P3.subset([1, 2]))),
            places.scale(3, places.chi(P3.subset([2, 3]))))
        g = parse_place(FC, "-1/2*chi(fin{0}) + chi(cof{0})")
        assert g == places.canonicalize(
            FC, [(Fraction(-1, 2), FC.fin([0])), (Fraction(1), FC.cof([0]))])
        assert parse_place(P3, "0").is_zero()

    def test_zero_denominator(self):
        with pytest.raises(ExprError):
            parse_place(P3, "1/0*chi({1})")

    def test_grid_must_partition_each_axis(self):
        fp = FreeProduct(FC, FC)
        good = {"left_cells": ["fin{0}", "cof{0}"], "right_cells": ["1"],
                "matrix": [[True], [False]]}
        assert rectform_from_grid(fp, good) == fp.rect(FC.fin([0]), FC.one)
        for cells in (["fin{0}"], ["fin{0}", "cof{}"], ["0", "1"],
                      ["cof{0}", "fin{0}", "cof{1}"],            # two cof cells
                      ["fin{0,1}", "fin{1}", "cof{0,1}"]):       # 1 in two fin cells
            bad = dict(good, left_cells=cells, matrix=[[True]] * len(cells))
            with pytest.raises(ExprError):
                rectform_from_grid(fp, bad)
        fq = FreeProduct(P3, P3)
        for cells in (["{1,2}", "{2,3}"], ["{1}", "{2}"]):       # overlap, gap
            bad = {"left_cells": cells, "right_cells": ["1"], "matrix": [[True]] * len(cells)}
            with pytest.raises(ExprError):
                rectform_from_grid(fq, bad)
        with pytest.raises(ExprError):
            rectform_from_grid(fp, dict(good, matrix=[[True]]))
