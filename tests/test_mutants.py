"""Planted defects that the suites must catch.

Each row of ``MUTANTS`` names a defect, the (module, attribute) it patches,
a patch that takes the original and returns the defective one, and the
suites that must fail under it.  A row runs ``run_suites`` on
``configs/default.json`` at trials 15 and seed 0, limited to its suites.
A defect that a suite misses is no row here; it is a gap in that suite.
"""

import json
from pathlib import Path

import pytest

from balg import bands, free_product
from balg.algebra import Elem, Hom
from balg.config import parse_config
from balg.free_product import InducedHom, RectForm
from balg.suites import run_suites

DEFAULT = json.loads((Path(__file__).resolve().parent.parent / "configs" / "default.json")
                     .read_text(encoding="utf-8"))


def key_by_raw_mask(join_cells):
    """``_join_cells`` keying every payload on a product with a table by
    its flat mask, as if every grid were the atom pairs."""
    def mutant(fp, payload, mask):
        forms = fp._forms
        if forms is None:
            return join_cells(fp, payload, mask)
        L, R = payload
        key = mask & ~(-1 << len(L) * len(R))
        if key not in forms:
            forms[key] = free_product._coarsen(fp, L, R, mask)
        return forms[key]
    return mutant


def drop_last_row(grid_mask):
    """``_grid_mask`` reading every row of the grid but the last."""
    return lambda fp, L, R, rows: grid_mask(fp, L, R, list(rows)[:-1])


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


MUTANTS = [
    ("join cells keyed by the raw mask", (free_product, "_join_cells"), key_by_raw_mask,
     ["free_product", "tensor_iso", "universal_property"]),
    ("grid mask drops the last row", (free_product, "_grid_mask"), drop_last_row,
     ["free_product", "tensor_iso", "universal_property", "bands", "completeness"]),
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
