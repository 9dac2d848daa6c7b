"""Planted defects that the suites must catch.

Each row of ``MUTANTS`` names a defect, the (module, attribute) it patches,
a patch that takes the original and returns the defective one, and the
suites that must fail under it.  A row runs ``run_suites`` on
``configs/default.json`` at trials 15 and seed 0, limited to its suites.
A defect that a suite misses is no row here; it is a gap in that suite.
"""

import json
from operator import mul
from pathlib import Path

import pytest

from balg import bands, free_product, places, points, tensor
from balg.algebra import FINITE_COFINITE, Elem, Hom, _FinCofKernel, _PowersetKernel
from balg.config import parse_config
from balg.free_product import FreeProduct, InducedHom, RectForm
from balg.suites import run_suites

DEFAULT = json.loads((Path(__file__).resolve().parent.parent / "configs" / "default.json")
                     .read_text(encoding="utf-8"))


def drop_last_row(grid_mask):
    """``_grid_mask`` reading every row of the grid but the last."""
    return lambda fp, L, R, rows: grid_mask(fp, L, R, list(rows)[:-1])


def cof_masks_lose_the_tail(point_cells):
    """finite_cofinite ``point_cells`` leaving the tail out of every cof
    part's mask."""
    def mutant(kernel, data):
        cells, masks = point_cells(kernel, data)
        tail = 1 << len(cells) - 1
        return cells, [m & ~tail if mode == "cof" else m for (mode, _), m in zip(data, masks)]
    return mutant


def drop_top_atom_bit(point_cells):
    """powerset ``point_cells`` dropping the highest atom from every mask."""
    def mutant(kernel, data):
        cells, masks = point_cells(kernel, data)
        top = kernel.one ^ kernel.one >> 1
        return cells, [m & ~top for m in masks]
    return mutant


def drop_last_named_point(point_cells):
    """finite_cofinite ``point_cells`` dropping the last named natural from
    every mask."""
    def mutant(kernel, data):
        cells, masks = point_cells(kernel, data)
        if len(cells) < 2:
            return cells, masks
        last = 1 << len(cells) - 2
        return cells, [m & ~last for m in masks]
    return mutant


def reverse_merged(merge):
    """``_merge`` returning its merged cells, each with its mask, in
    reverse order."""
    def mutant(alg, cells, masks):
        cells, masks = merge(alg, cells, masks)
        return cells[::-1], masks[::-1]
    return mutant


def top_atom(alg) -> int:
    """The bit of a powerset's highest atom, 0 for the trivial one."""
    return alg.one.data ^ alg.one.data >> 1


def drop_top_target_atom(call):
    """``Hom.__call__`` dropping the highest target atom from each image of
    an atom map."""
    def mutant(h, x):
        y = call(h, x)
        if h.atom_map is None:
            return y
        return Elem(h.target, y.data & ~top_atom(h.target))
    return mutant


def add_top_target_atom(call):
    """``Hom.__call__`` adding the highest target atom to each nonzero image
    of an atom map."""
    def mutant(h, x):
        y = call(h, x)
        if h.atom_map is None or y.is_zero():
            return y
        return Elem(h.target, y.data | top_atom(h.target))
    return mutant


def skip_last_active_row(call):
    """``InducedHom.__call__`` leaving out the last row with a cell set."""
    def mutant(ind, x):
        active = [i for i, row in enumerate(x.rows) if row]
        if not active:
            return call(ind, x)
        rows = list(x.rows)
        rows[active[-1]] = 0
        return call(ind, RectForm(x.fp, x.left_cells, x.right_cells, tuple(rows)))
    return mutant


def drop_top_band_atom(principal_band):
    """``principal_band`` with its highest atom cut."""
    def mutant(f):
        band = principal_band(f)
        mask = band.alg.atom_mask(band)
        return band.alg.from_atom_mask(mask & ~(1 << mask.bit_length() >> 1))
    return mutant


def largest_denominator(common):
    """``places._common`` taking the largest denominator, not the lcm."""
    def mutant(coefs):
        coefs = list(coefs)
        d = max((c.denominator for c in coefs), default=1)
        return d, [c.numerator * (d // c.denominator) for c in coefs]
    return mutant


def drop_denominator(from_cell_values):
    """``places.from_cell_values`` reading every integer value over 1."""
    return lambda backend, payload, values, d: from_cell_values(backend, payload, values, 1)


def g_over_its_own_denominator(cell_values):
    """``places._cell_values`` putting g's cell values over the lcm of g's
    own denominators, not the one f and g share."""
    def mutant(backend, f, g):
        payload, d, fvals, gvals = cell_values(backend, f, g)
        dg, _ = places._common(c for c, _ in g.terms)
        return payload, d, fvals, [v * dg // d for v in gvals]
    return mutant


def skip_last_term(cell_sums):
    """``places._cell_sums`` leaving out the last of three or more terms."""
    return lambda nums, masks, ncells: cell_sums(
        nums[:-1] if len(nums) > 2 else nums, masks, ncells)


def drop_last_rectangle(normalize):
    """``FreeProduct.normalize`` leaving out the last of several rectangles."""
    return lambda fp, rects: normalize(fp, rects[:-1] if len(rects) > 1 else rects)


def cof_part_listed_first(refine):
    """``refine_partition`` as ``free_product`` binds it, listing a cofinite
    part before its finite complement, so a one-rectangle grid leaves those
    two cells unsorted."""
    def mutant(one, parts):
        cells = refine(one, parts)
        if (len(parts) == 1 and len(cells) == 2 and one.alg.kind == FINITE_COFINITE
                and parts[0].data[0] == "cof"):
            return cells[::-1]
        return cells
    return mutant


def activate_the_complement_row(normalize):
    """``FreeProduct.normalize`` of one nonzero rectangle a x b activating
    ~a x b: the two rows of its grid swapped."""
    def mutant(fp, rects):
        x = normalize(fp, rects)
        if sum(not r.is_zero() for r in rects) != 1 or len(x.rows) != 2:
            return x
        return RectForm(fp, x.left_cells, x.right_cells, x.rows[::-1])
    return mutant


def drop_last_member(join):
    """``FreeProduct.join`` leaving out the last of several members."""
    def mutant(fp, xs):
        xs = list(xs)
        return join(fp, xs[:-1] if len(xs) > 1 else xs)
    return mutant


def lv_against_l_abs_v(preserves_abs):
    """``LinearLatticeMap.preserves_abs`` comparing Lv, not |Lv|, with L|v|,
    on the same integer draws."""
    def mutant(lmap, rng):
        for _ in range(100):
            u = tensor._sixths(lmap.source, rng)
            au = [abs(x) for x in u]
            if any(sum(map(mul, row, u)) != sum(map(mul, row, au)) for row in lmap.matrix):
                return False
        return True
    return mutant


def cof_misses_the_tail(holds):
    """``points.holds`` reading a cofinite element as missing TAIL."""
    def mutant(x, pts):
        got = holds(x, pts)
        if isinstance(x, Elem) and x.data[0] == "cof":
            return [h and p is not points.TAIL for h, p in zip(got, pts)]
        return got
    return mutant


def one_past_the_last_named(decisive):
    """``points.decisive`` putting one natural past the last named one in
    place of TAIL, which fails on a family that names none."""
    def mutant(alg, elems):
        pts = decisive(alg, elems)
        if pts and pts[-1] is points.TAIL:
            return pts[:-1] + [pts[-2] + 1]
        return pts
    return mutant


MUTANTS = [
    ("grid mask drops the last row", (free_product, "_grid_mask"), drop_last_row,
     ["free_product", "tensor_iso", "bands", "completeness"]),
    ("cof point masks lose the tail", (_FinCofKernel, "point_cells"), cof_masks_lose_the_tail,
     ["free_product"]),
    ("atom point masks drop the top atom", (_PowersetKernel, "point_cells"), drop_top_atom_bit,
     ["free_product", "place_addition", "tensor_iso", "universal_property"]),
    ("point masks drop the last named natural", (_FinCofKernel, "point_cells"),
     drop_last_named_point, ["free_product", "place_addition"]),
    ("merged cells reversed", (free_product, "_merge"), reverse_merged,
     ["free_product", "tensor_iso"]),
    ("atom map drops the top target atom", (Hom, "__call__"), drop_top_target_atom,
     ["homomorphisms", "universal_property"]),
    ("atom map adds the top target atom", (Hom, "__call__"), add_top_target_atom,
     ["homomorphisms"]),
    ("induced map skips the last active row", (InducedHom, "__call__"), skip_last_active_row,
     ["universal_property"]),
    ("principal band drops its top atom", (bands, "principal_band"), drop_top_band_atom,
     ["bands"]),
    ("common denominator is the largest one", (places, "_common"), largest_denominator,
     ["place_addition", "tensor_iso", "universal_property"]),
    ("cell values lose the common denominator", (places, "from_cell_values"), drop_denominator,
     ["place_addition", "regularity", "tensor_iso", "universal_property"]),
    ("g's cell values over its own denominator", (places, "_cell_values"),
     g_over_its_own_denominator, ["place_addition", "tensor_iso", "completeness"]),
    ("cell sums skip the last term", (places, "_cell_sums"), skip_last_term,
     ["place_addition", "tensor_iso", "universal_property", "completeness"]),
    ("normalize of several rectangles drops the last", (FreeProduct, "normalize"),
     drop_last_rectangle, ["free_product"]),
    ("free-product join drops a member", (FreeProduct, "join"), drop_last_member,
     ["free_product"]),
    ("one-rectangle grid leaves a cofinite side unsorted", (free_product, "refine_partition"),
     cof_part_listed_first, ["free_product"]),
    ("one-rectangle grid activates ~a x b", (FreeProduct, "normalize"),
     activate_the_complement_row, ["free_product", "universal_property"]),
    ("preserves_abs compares Lv with L|v|", (tensor.LinearLatticeMap, "preserves_abs"),
     lv_against_l_abs_v, ["universal_property"]),
    ("holds reads a cofinite element as missing TAIL", (points, "holds"), cof_misses_the_tail,
     ["completeness"]),
    ("decisive takes one past the last named natural for TAIL", (points, "decisive"),
     one_past_the_last_named, ["completeness"]),
]


def verdicts(suites) -> dict[str, str]:
    cfg = parse_config(json.dumps({**DEFAULT, "trials": 15, "seed": 0, "suites": suites}))
    return {s.name: s.verdict for s in run_suites(cfg).suites}


@pytest.mark.parametrize("name, target, patch, suites", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_each_listed_suite_catches_the_mutant(monkeypatch, name, target, patch, suites):
    module, attr = target
    monkeypatch.setattr(module, attr, patch(getattr(module, attr)))
    assert verdicts(suites) == dict.fromkeys(suites, "fail")


def test_the_listed_suites_pass_unpatched():
    """Control: a suite that failed anyway would catch every mutant."""
    suites = sorted({s for *_, listed in MUTANTS for s in listed})
    assert verdicts(suites) == dict.fromkeys(suites, "pass")
