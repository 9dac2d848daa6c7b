from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balg.algebra import POWERSET, AlgebraError, Elem, trivial_algebra
from balg.expr import (MAX_DEPTH, ExprError, _Parser, elem_text, grid_dict, parse_element,
                       parse_place, place_text, rect_text, rectform_from_grid)
from balg.free_product import FreeProduct, RectForm
from balg import free_product, places
from balg.points import decisive, holds
from conftest import (FC, INEXACT, P3, P4, fincof_elems, flat, grid_elems, partitions,
                      powerset_elems, rationals)

FCxFC = FreeProduct(FC, FC)
P3xP4 = FreeProduct(P3, P4)
GRIDS = {
    "FCxFC": (FCxFC, fincof_elems(), fincof_elems()),
    "P3xP4": (P3xP4, powerset_elems(P3), powerset_elems(P4)),
    "P3xFC": (FreeProduct(P3, FC), powerset_elems(P3), fincof_elems()),
}
ELEMS = {"P3": (P3, powerset_elems(P3)), "FC": (FC, fincof_elems())}


def merge_on_elements(alg, cells, masks):
    """Oracle for ``free_product._merge``: the same merge on elements, each
    group joined with ``Algebra.join`` and sorted by ``Algebra.sort_key``."""
    groups = {}
    for cell, m in zip(cells, masks):
        groups.setdefault(m, []).append(cell)
    merged = sorted(((g[0] if len(g) == 1 else alg.join(g), m) for m, g in groups.items()),
                    key=lambda t: alg.sort_key(t[0]))
    return tuple(c for c, _ in merged), [m for _, m in merged]


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
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_elem_text_roundtrip(self, data):
        alg, elems = ELEMS[data.draw(st.sampled_from(sorted(ELEMS)))]
        x = data.draw(elems)
        assert parse_element(alg, elem_text(x)) == x

    def test_canonical_constants(self):
        assert elem_text(P3.zero) == "0"
        assert elem_text(P3.one) == "1"
        assert elem_text(FC.fin([])) == "0"
        assert elem_text(FC.cof([])) == "1"

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rect_text_roundtrip(self, data):
        fp, left, right = GRIDS[data.draw(st.sampled_from(sorted(GRIDS)))]
        x = data.draw(grid_elems(fp, left, right))
        assert parse_element(fp, rect_text(x)) == x

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_grid_roundtrip(self, data):
        fp, left, right = GRIDS[data.draw(st.sampled_from(sorted(GRIDS)))]
        x = data.draw(grid_elems(fp, left, right))
        assert rectform_from_grid(fp, grid_dict(x)) == x

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_place_text_roundtrip(self, data):
        alg, elems = ELEMS[data.draw(st.sampled_from(sorted(ELEMS)))]
        terms = data.draw(st.lists(st.tuples(rationals(), elems), max_size=4))
        f = places.canonicalize(alg, terms)
        assert parse_place(alg, place_text(f)) == f

    def test_place_text_style(self):
        f = places.canonicalize(P3, [(2, P3.subset([1, 2])), (3, P3.subset([3]))])
        assert place_text(f) == "2*chi({1,2}) + 3*chi({3})"
        assert place_text(places.zero(P3)) == "0"

    @pytest.mark.parametrize("c", [1.0, *INEXACT.values()], ids=["1.0", *INEXACT])
    def test_place_text_refuses_an_inexact_coefficient(self, c):
        """1.0 * chi(1), built by hand, is not written as chi(1)."""
        for terms in (((c, P3.one),), ((1, P3.subset([1])), (c, P3.subset([2])))):
            with pytest.raises(AlgebraError, match="coefficient"):
                place_text(places.PlaceFunction(P3, terms))

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


class TestDigits:
    @pytest.mark.parametrize("text", ["fin{²}", "cof{¹}", "fin{１}", "{１}", "fin{0,²}"])
    def test_only_ascii_digits_are_numbers(self, text):
        for backend in (FC, P3):
            with pytest.raises(ExprError):
                parse_element(backend, text)

    def test_place_coefficients_are_ascii(self):
        with pytest.raises(ExprError):
            parse_place(P3, "²*chi({1})")


def nested(depth: int, inner: str = "0") -> dict[str, str]:
    """``inner`` under ``depth`` levels of each nesting form."""
    return {"parens": "(" * depth + inner + ")" * depth,
            "bangs": "!" * depth + inner,
            "mixed": "!(" * (depth // 2) + "!" * (depth % 2) + inner + ")" * (depth // 2)}


class TestNestingDepth:
    """Nesting past MAX_DEPTH is an ExprError at every entry point, however
    deep, never a RecursionError; nesting up to it parses."""

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 1000, 5000])
    def test_parse_element_rejects_deep_nesting(self, depth):
        for text in nested(depth).values():
            with pytest.raises(ExprError, match="nested more than"):
                parse_element(P3, text)

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 1000])
    def test_parse_place_rejects_deep_nesting(self, depth):
        for text in nested(depth, "{1}").values():
            with pytest.raises(ExprError, match="nested more than"):
                parse_place(P3, f"2*chi({text})")

    @pytest.mark.parametrize("depth", [MAX_DEPTH, 1000])
    def test_rect_sides_count_toward_the_depth(self, depth):
        fp = FreeProduct(P3, FC)
        # rect( is one level, so its sides hold one level fewer
        for text in nested(depth).values():
            with pytest.raises(ExprError, match="nested more than"):
                parse_element(fp, f"rect({text},1)")
            with pytest.raises(ExprError, match="nested more than"):
                parse_element(fp, f"rect(1,{text})")

    def test_nesting_up_to_the_limit_parses(self):
        fp = FreeProduct(P3, FC)
        for text in nested(MAX_DEPTH).values():
            want = P3.one if text.count("!") % 2 else P3.zero
            assert parse_element(P3, text) == want
            assert parse_place(P3, f"chi({text} | {{1}})") == places.chi(want | P3.subset([1]))
        inner = nested(MAX_DEPTH - 1)["parens"]
        assert parse_element(fp, f"rect({inner},1)") == fp.zero


# texts the literal fast path is tried on: strings of these pieces, and
# literal-shaped ones whose numbers are strings of them too
LITERAL_PIECES = st.sampled_from(
    ["fin", "cof", "{", "}", ",", " ", "!", "&", "²", "１", *"0123456789"])
NUMBERS = st.lists(st.one_of(st.sampled_from("0123456789"), LITERAL_PIECES),
                   min_size=1, max_size=3).map("".join)
LITERAL_TEXTS = st.one_of(
    st.lists(LITERAL_PIECES, max_size=8).map("".join),
    st.tuples(st.sampled_from(["", "fin", "cof"]), st.lists(NUMBERS, max_size=3)).map(
        lambda t: t[0] + "{" + ",".join(t[1]) + "}"))
BACKENDS = {"P3": P3, "FC": FC, "trivial": trivial_algebra(), "FCxFC": FCxFC}


def full_parse(backend, text):
    p = _Parser(text)
    return p.finish(p.element(backend))


def outcome(parse, backend, text):
    try:
        return parse(backend, text)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


class TestLiteralFastPath:
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_full_parser(self, name, data):
        backend = BACKENDS[name]
        text = data.draw(LITERAL_TEXTS)
        assert outcome(parse_element, backend, text) == outcome(full_parse, backend, text)

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    @pytest.mark.parametrize("text", ["0", "1", "{}", "{2,1,2}", "{01}", "{4}", "fin{}",
                                      "fin{3,1,3}", "cof{0}", "cof{1000000,7}", "00",
                                      "01", "{1,}", "fin{,1}", "fin {1}", "rect(1,0)"])
    def test_literals_match_full_parser(self, name, text):
        backend = BACKENDS[name]
        assert outcome(parse_element, backend, text) == outcome(full_parse, backend, text)


def split_cell(alg, cell):
    """Two nonzero cells whose join is ``cell``, or None if it is an atom."""
    if alg.kind == POWERSET:
        low = cell.data & -cell.data
        return None if low == cell.data else (Elem(alg, low), Elem(alg, cell.data ^ low))
    mode, support = cell.data
    if mode == "fin":
        return None if len(support) < 2 else (alg.fin(support[:1]), alg.fin(support[1:]))
    n = next(k for k in count() if k not in support)
    return alg.fin([n]), alg.cof(support + (n,))


def report_grid(fp, left, right, matrix):
    """Report form of a grid over the given cells, put in ``sort_key`` order."""
    lp = sorted(range(len(left)), key=lambda i: fp.left.sort_key(left[i]))
    rp = sorted(range(len(right)), key=lambda j: fp.right.sort_key(right[j]))
    return {"left_cells": [elem_text(left[i]) for i in lp],
            "right_cells": [elem_text(right[j]) for j in rp],
            "matrix": [[matrix[i][j] for j in rp] for i in lp]}


def split_grid(x, axis):
    """The report form of x with one splittable cell of an axis split in two,
    the two parts carrying equal rows (left) or equal columns (right)."""
    fp = x.fp
    left, right = list(x.left_cells), list(x.right_cells)
    matrix = grid_dict(x)["matrix"]
    alg, cells = (fp.left, left) if axis == "left" else (fp.right, right)
    for k, c in enumerate(cells):
        parts = split_cell(alg, c)
        if parts is None:
            continue
        cells[k:k + 1] = parts
        if axis == "left":
            matrix.insert(k, list(matrix[k]))
        else:
            matrix = [row[:k] + [row[k]] + row[k:] for row in matrix]
        return report_grid(fp, left, right, matrix)
    return None


class TestCanonicalGrids:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_altered_grids_raise(self, name, data):
        fp, left, right = GRIDS[name]
        x = data.draw(grid_elems(fp, left, right))
        payload = grid_dict(x)
        for axis, cells in (("left_cells", x.left_cells), ("right_cells", x.right_cells)):
            if len(cells) < 2:
                continue
            # two cells swapped, with their rows or columns: the same element
            k = data.draw(st.integers(0, len(cells) - 2))
            swapped = dict(payload, **{axis: list(payload[axis])})
            swapped[axis][k:k + 2] = swapped[axis][k + 1], swapped[axis][k]
            if axis == "left_cells":
                swapped["matrix"] = list(payload["matrix"])
                swapped["matrix"][k:k + 2] = payload["matrix"][k + 1], payload["matrix"][k]
            else:
                swapped["matrix"] = [row[:k] + [row[k + 1], row[k]] + row[k + 2:]
                                     for row in payload["matrix"]]
            with pytest.raises(ExprError, match="canonical order"):
                rectform_from_grid(fp, swapped)
        for axis in ("left", "right"):
            split = split_grid(x, axis)
            if split is not None:
                with pytest.raises(ExprError, match="two equal"):
                    rectform_from_grid(fp, split)

    @pytest.mark.parametrize("name", sorted(GRIDS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_accepts_exactly_the_fixed_points_of_canonical(self, name, data):
        fp, left, right = GRIDS[name]
        L = data.draw(partitions(fp.left, left))
        R = data.draw(partitions(fp.right, right))
        matrix = data.draw(st.lists(st.lists(st.booleans(), min_size=len(R), max_size=len(R)),
                                    min_size=len(L), max_size=len(L)))
        rows = [sum(1 << j for j, a in enumerate(row) if a) for row in matrix]
        payload = {"left_cells": [elem_text(c) for c in L],
                   "right_cells": [elem_text(c) for c in R], "matrix": matrix}
        as_given = RectForm(fp, tuple(L), tuple(R), tuple(rows))
        if free_product._coarsen(fp, L, R, flat(rows, len(R))) == as_given:
            assert rectform_from_grid(fp, payload) == as_given
        else:
            with pytest.raises(ExprError):
                rectform_from_grid(fp, payload)

    @pytest.mark.parametrize("name", sorted(GRIDS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_canonical_of_any_grid(self, name, data):
        """``_coarsen`` of a grid in any cell order, with equal rows and
        equal columns: canonical, and the same set as the raw grid at every
        named point and at one generic point.  Each axis merges as the
        element-level oracle does."""
        fp, left, right = GRIDS[name]
        L = data.draw(partitions(fp.left, left))
        R = data.draw(partitions(fp.right, right))
        # rows drawn from a few patterns, so that rows and columns repeat
        pool = data.draw(st.lists(st.integers(0, (1 << len(R)) - 1), min_size=1, max_size=3))
        rows = [data.draw(st.sampled_from(pool)) for _ in L]
        for alg, cells, masks in ((fp.left, L, rows),
                                  (fp.right, R, free_product._transpose(rows, len(R)))):
            assert free_product._merge(alg, cells, masks) == merge_on_elements(alg, cells, masks)
        x = free_product._coarsen(fp, L, R, flat(rows, len(R)))
        assert len(set(x.rows)) == len(x.rows)
        cols = [tuple(r >> j & 1 for r in x.rows) for j in range(len(x.right_cells))]
        assert len(set(cols)) == len(cols)
        for cells, alg in ((x.left_cells, fp.left), (x.right_cells, fp.right)):
            assert alg.sup(cells) == alg.one
            keys = [alg.sort_key(c) for c in cells]
            assert keys == sorted(keys)
            assert not any(c.is_zero() for c in cells)
            assert all((c & d).is_zero() for k, c in enumerate(cells) for d in cells[k + 1:])
        for p in decisive(fp.left, L):
            i = next(k for k, c in enumerate(L) if holds(c, [p])[0])
            for q in decisive(fp.right, R):
                j = next(k for k, c in enumerate(R) if holds(c, [q])[0])
                assert holds(x, [(p, q)]) == [bool(rows[i] >> j & 1)]

    @pytest.mark.parametrize("name", sorted(GRIDS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_complement_is_canonical_as_it_stands(self, name, data):
        fp, left, right = GRIDS[name]
        x = data.draw(grid_elems(fp, left, right))
        assert rectform_from_grid(fp, grid_dict(~x)) == ~x
        assert (x & ~x).is_zero() and (x | ~x) == fp.one and ~~x == x

    def test_complement_does_not_canonicalise(self, monkeypatch):
        """Work guard: ``~`` complements the rows of the canonical grid it
        is given and calls neither ``_join_cells`` nor ``_coarsen``."""
        xs = [~FCxFC.rect(FC.fin([n]), FC.fin([n + 1])) for n in range(5)]
        xs += [FCxFC.zero, FCxFC.one,
               FreeProduct(P3, P4).rect(P3.subset([1]), P4.subset([2, 3]))]
        calls = {"_join_cells": 0, "_coarsen": 0}
        for name in calls:
            original = getattr(free_product, name)

            def counting(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(free_product, name, counting)
        assert all(~x != x for x in xs)
        assert calls == {"_join_cells": 0, "_coarsen": 0}

    def test_duplicated_row(self):
        x = FCxFC.rect(FC.fin([0, 5]), FC.cof([2]))
        payload = split_grid(x, "left")
        assert payload["left_cells"] == ["fin{0}", "fin{5}", "cof{0,5}"]
        assert payload["matrix"][0] == payload["matrix"][1]
        with pytest.raises(ExprError, match="two equal rows or two equal columns"):
            rectform_from_grid(FCxFC, payload)

    def test_entries_must_be_booleans(self):
        payload = grid_dict(FCxFC.rect(FC.fin([0]), FC.one))
        # 1, 0, 1.0 and 0.0 compare equal to the booleans, and are refused too
        for entry in (2, None, "yes", [True], 1, 0, 1.0, 0.0):
            bad = dict(payload, matrix=[[entry], [False]])
            with pytest.raises(ExprError, match="true or false"):
                rectform_from_grid(FCxFC, bad)
        with pytest.raises(ExprError, match="true or false"):
            rectform_from_grid(FCxFC, {"left_cells": ["fin{0}", "cof{0}"],
                                       "right_cells": ["1"], "matrix": [[1], [0.0]]})

    def test_trivial_product_grid_has_no_cells(self):
        fp = FreeProduct(trivial_algebra(), FC)
        assert rectform_from_grid(fp, grid_dict(fp.one)) == fp.one
        with pytest.raises(ExprError):
            rectform_from_grid(fp, {"left_cells": ["0"], "right_cells": ["1"],
                                    "matrix": [[True]]})
