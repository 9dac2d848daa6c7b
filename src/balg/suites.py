"""Verification suites over configured backends, with JSON reporting.

Each suite is a pure function of (config, seed): the per-suite generator is
seeded from the config seed and the suite name, so identical configurations
reproduce byte-identical reports apart from the timing fields.

A suite checks laws.  Laws that share a random sample form one row table,
which ``_Suite.run`` evaluates sample by sample; every law counts its runs,
the samples its precondition skipped and its failures, and a law that ran
zero times fails its suite.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import reduce
from math import ceil
from operator import add, and_, or_, xor

from .algebra import (Algebra, Hom, MAX_ATOMS, POWERSET,
                      check_homomorphism, powerset, trivial_algebra)
from .free_product import FreeProduct, InducedHom, Rectangle
from . import bands as band_model
from . import certificates as certs
from . import expr
from . import places
from . import tensor
from .config import SuiteConfig
from .places import PlaceFunction
from .tensor import AtomVector, PlaceSpace, VectorSpace
from .validation import validate_certificate

REPORT_VERSION = "1"


@dataclass
class SuiteResult:
    name: str
    verdict: str
    witnesses: list
    certificate: dict | None
    seconds: float
    laws: dict


@dataclass
class Report:
    version: str
    config_echo: dict
    suites: list[SuiteResult]

    @property
    def all_pass(self) -> bool:
        return all(s.verdict == "pass" for s in self.suites)

    def to_dict(self) -> dict:
        return asdict(self)


def _witness(kind: str, label: str, payload: dict) -> dict:
    return {kind: label, **{k: expr.serialize_value(v) for k, v in payload.items()}}


class _Suite:
    """Runs one suite's laws and tallies each law by name.

    A law's name carries no backend, pairing or dimension: those go in
    ``where``, which only a failure's label shows, and the counts are summed
    over them.  The first failure keeps its witness.
    """

    def __init__(self):
        self.ok = True
        self.witnesses: list = []
        self.certificate: dict | None = None
        self.laws: dict[str, list[int]] = {}  # law -> [runs, skipped, failed]

    def fail(self, label: str, **payload) -> None:
        if self.ok:
            self.ok = False
            self.witnesses.append(_witness("failed", label, payload))

    def check(self, holds, law: str, where: str = "", met: bool = True, /, **payload):
        """Count one sample of a law.

        ``met`` False says the sample failed the law's precondition: it
        counts as skipped, and ``holds`` is then the law on a fallback
        sample built from the same values so that the precondition holds,
        or None where there is no fallback and the law does not run.
        """
        counts = self.laws.setdefault(law, [0, 0, 0])
        if not met:
            counts[1] += 1
            if holds is None:
                return holds
        counts[0] += 1
        if not holds:
            counts[2] += 1
            self.fail(f"{where}: {law}" if where else law, **payload)
        return holds

    def table(self, where: str, rows, /, **sample) -> None:
        """Check a table of laws on one sample, which a failure's witness
        shows.  A row is ``(law, holds)``, or ``(law, holds, met)`` for a law
        with a precondition, as in ``check``."""
        for law, holds, *met in rows:
            self.check(holds, law, where, *met, **sample)

    def note(self, label: str, **payload) -> None:
        self.witnesses.append(_witness("note", label, payload))

    def tally(self) -> dict:
        return {law: {"runs": r, "skipped": k, "failed": f}
                for law, (r, k, f) in self.laws.items()}


# -- core axioms ------------------------------------------------------------------


def _random_expr_tree(alg: Algebra, rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return ("const", alg.zero)
        if roll < 0.2:
            return ("const", alg.one)
        return ("const", alg.random_elem(rng))
    op = rng.choice(("and", "or", "xor", "not"))
    if op == "not":
        return ("not", _random_expr_tree(alg, rng, depth - 1))
    return (op, _random_expr_tree(alg, rng, depth - 1),
            _random_expr_tree(alg, rng, depth - 1))


_TREE_OPS = {"and": and_, "or": or_, "xor": xor}


def _eval_tree_elem(node):
    tag = node[0]
    if tag == "const":
        return node[1]
    if tag == "not":
        return ~_eval_tree_elem(node[1])
    return _TREE_OPS[tag](_eval_tree_elem(node[1]), _eval_tree_elem(node[2]))


def _eval_tree_sets(node, universe: frozenset):
    tag = node[0]
    if tag == "const":
        bits = node[1].alg.atom_mask(node[1])
        return {i for i in universe if bits >> i & 1}
    if tag == "not":
        return set(universe) - _eval_tree_sets(node[1], universe)
    return _TREE_OPS[tag](_eval_tree_sets(node[1], universe),
                          _eval_tree_sets(node[2], universe))


def suite_core_axioms(cfg: SuiteConfig, rng: random.Random) -> _Suite:
    s = _Suite()
    for alg in cfg.algebras:
        where = alg.name or alg.kind
        exhaustive = alg.kind == POWERSET and not alg.is_trivial
        for _ in range(cfg.trials):
            x = alg.random_elem(rng)
            y = alg.random_elem(rng)
            z = alg.random_elem(rng)
            # a draw outside an order law's precondition is replaced by a
            # pair or chain built from it: x <= x | (x & y) <= x, and
            # x <= x | y <= x | y | z
            antisym = x.leq(y) and y.leq(x)
            trans = x.leq(y) and y.leq(z)
            s.table(where, (
                ("meet-assoc", (x & y) & z == x & (y & z)),
                ("join-assoc", (x | y) | z == x | (y | z)),
                ("meet-comm", x & y == y & x),
                ("join-comm", x | y == y | x),
                ("meet-distrib", x & (y | z) == (x & y) | (x & z)),
                ("join-distrib", x | (y & z) == (x | y) & (x | z)),
                ("absorption", x & (x | y) == x),
                ("absorption-dual", x | (x & y) == x),
                ("complement-meet", (x & ~x) == alg.zero),
                ("complement-join", (x | ~x) == alg.one),
                ("dsum-assoc", (x ^ y) ^ z == x ^ (y ^ z)),
                ("dsum-comm", x ^ y == y ^ x),
                ("dsum-identity", x ^ alg.zero == x),
                ("dsum-self", x ^ x == alg.zero),
                ("zero-bottom", alg.zero.leq(x)),
                ("leq-by-join", x.leq(y) == ((x | y) == y)),
                ("leq-antisym", x == (y if antisym else x | (x & y)), antisym),
                ("leq-trans", x.leq(z if trans else x | y | z), trans),
                ("relcompl-zero", x.rel_complement(alg.zero) == x),
                ("relcompl-self", x.rel_complement(x) == alg.zero),
                ("relcompl-def", x.rel_complement(y) == (x & ~(x & y))),
            ), x=x, y=y, z=z)
        # join of a finite family is its least upper bound: below every
        # upper bound, exhaustively on a powerset, else among 20 random
        # elements, each non-bound raised to a bound by joining the family
        for _ in range(max(1, cfg.trials // 4)):
            xs = [alg.random_elem(rng) for _ in range(rng.randint(1, 4))]
            top = alg.sup(xs)
            s.check(all(v.leq(top) for v in xs), "sup-bounds", where, xs=xs)
            bounds = alg.elements() if exhaustive else [alg.random_elem(rng) for _ in range(20)]
            for b in bounds:
                bound = all(v.leq(b) for v in xs)
                s.check(top.leq(b if bound else reduce(or_, xs, b)), "sup-least", where,
                        bound, xs=xs, join=top, bound=b)
        if exhaustive:
            universe = frozenset(range(alg.atom_count))
            for _ in range(cfg.trials):
                tree = _random_expr_tree(alg, rng, 4)
                got = _eval_tree_elem(tree)
                want = _eval_tree_sets(tree, universe)
                s.check(_eval_tree_sets(("const", got), universe) == want,
                        "expression-oracle", where, result=got)
    return s


# -- homomorphisms ----------------------------------------------------------------


def suite_homomorphisms(cfg: SuiteConfig, rng: random.Random) -> _Suite:
    s = _Suite()
    powersets = cfg.powersets
    for alg in powersets:
        exhaustive = alg.atom_count <= 3
        verdict = check_homomorphism(Hom.identity(alg), exhaustive=exhaustive,
                                     trials=cfg.trials, rng=rng)
        s.check(verdict.ok, "identity is a homomorphism", alg.name, axiom=verdict.axiom)
    for src in powersets:
        for dst in powersets:
            for _ in range(3):
                amap = [rng.randint(1, src.atom_count) for _ in range(dst.atom_count)]
                h = Hom.from_atom_map(src, dst, amap)
                exhaustive = src.atom_count <= 3
                verdict = check_homomorphism(h, exhaustive=exhaustive,
                                             trials=cfg.trials, rng=rng)
                s.check(verdict.ok, "atom map is a homomorphism", f"{src.name}->{dst.name}",
                        atom_map=amap, axiom=verdict.axiom, witness=verdict.witness)
    for alg in cfg.fincofs:
        gens = [alg.fin([0]), alg.fin([1, 2])]
        h = Hom.from_generator_images(alg, alg, [(g, g) for g in gens])
        verdict = check_homomorphism(h, trials=cfg.trials, rng=rng)
        s.check(verdict.ok, "generator-image identity is a homomorphism", alg.name,
                axiom=verdict.axiom)
        if powersets:
            # evaluation "at infinity": finite sets collapse to zero
            target = powersets[0]
            h2 = Hom.from_generator_images(alg, target,
                                           [(alg.fin([0]), target.zero),
                                            (alg.fin([3, 4]), target.zero)])
            verdict = check_homomorphism(h2, trials=cfg.trials, rng=rng)
            s.check(verdict.ok, "finite collapse is a homomorphism",
                    f"{alg.name}->{target.name}", axiom=verdict.axiom)
    # negative control: the constant-to-unit table is rejected with a
    # counterexample at the disjoint-sum axiom
    p2 = powerset(2, "fixture")
    broken = Hom.from_table(p2, p2, {x: p2.one for x in p2.elements()})
    verdict = check_homomorphism(broken, exhaustive=True)
    rejected = not verdict.ok and verdict.axiom == "disjoint-sum"
    if s.check(rejected, "broken-homomorphism fixture must be rejected"):
        s.note("broken-homomorphism fixture rejected",
               axiom=verdict.axiom, pair=list(verdict.witness),
               lhs=verdict.lhs, rhs=verdict.rhs)
    return s


# -- free product -----------------------------------------------------------------


def _pairings(cfg: SuiteConfig) -> list[FreeProduct]:
    return [FreeProduct(a, b) for a in cfg.nontrivial for b in cfg.nontrivial
            if {a.kind, b.kind} != {POWERSET} or a.atom_count * b.atom_count <= MAX_ATOMS]


def suite_free_product(cfg: SuiteConfig, rng: random.Random) -> _Suite:
    s = _Suite()
    for fp in _pairings(cfg):
        a, b, where = fp.left, fp.right, fp.name
        if a.kind == POWERSET and b.kind == POWERSET:
            atoms = fp.atoms()
            n_m = a.atom_count * b.atom_count
            s.check(len(atoms) == n_m, "atom count", where, expected=n_m)
            s.check(all(not t.is_zero() for t in atoms), "atoms nonzero", where)
            s.check(all((atoms[i] & atoms[j]).is_zero()
                        for i in range(len(atoms)) for j in range(i + 1, len(atoms))),
                    "atoms disjoint", where)
            s.check(fp.sup(atoms) == fp.one, "atoms join to unit", where)
            if n_m <= 12:
                seen = {fp.from_atom_mask(mask) for mask in range(1 << n_m)}
                s.check(len(seen) == 1 << n_m, "element count", where,
                        expected=1 << n_m, got=len(seen))
            if n_m <= 6:
                for x in fp.elements():
                    for t in atoms:
                        meet = x & t
                        s.check(meet.is_zero() or meet == t, "atom minimality", where,
                                x=x, atom=t)
        # canonical embeddings are homomorphisms and injective; a repeated
        # draw is told apart from its complement instead
        for _ in range(max(1, cfg.trials // 4)):
            x, y = a.random_elem(rng), a.random_elem(rng)
            u, v = b.random_elem(rng), b.random_elem(rng)
            s.table(where, (
                ("embed-left meet",
                 fp.embed_left(x & y) == (fp.embed_left(x) & fp.embed_left(y))),
                ("embed-left dsum",
                 fp.embed_left(x ^ y) == (fp.embed_left(x) ^ fp.embed_left(y))),
                ("embed-left injective",
                 fp.embed_left(x) != fp.embed_left(y if x != y else ~x), x != y),
                ("embed-right meet",
                 fp.embed_right(u & v) == (fp.embed_right(u) & fp.embed_right(v))),
                ("embed-right injective",
                 fp.embed_right(u) != fp.embed_right(v if u != v else ~u), u != v),
            ), x=x, y=y, u=u, v=v)
        s.check(fp.embed_left(a.one) == fp.one, "embed-left unit", where)
        s.check(fp.embed_left(a.zero) == fp.zero, "embed-left zero", where)
        # nonzero rectangles (both sides nonzero stay nonzero); a zero side
        # is replaced by its complement
        for _ in range(max(1, cfg.trials // 4)):
            x = a.random_elem(rng)
            y = b.random_elem(rng)
            s.check(not fp.rect(~x if x.is_zero() else x, ~y if y.is_zero() else y).is_zero(),
                    "rectangle nonzero", where, not (x.is_zero() or y.is_zero()), x=x, y=y)
        # decomposition rejoins, disjointly
        for _ in range(max(1, cfg.trials // 2)):
            x = fp.random_elem(rng)
            rects = x.decompose_disjoint()
            s.table(where, (
                ("decomposition nonzero", all(not r.is_zero() for r in rects)),
                ("decomposition disjoint",
                 all((rects[i].left & rects[j].left).is_zero()
                     for i in range(len(rects)) for j in range(i + 1, len(rects)))),
                ("decomposition below", all(fp.rect(r.left, r.right).leq(x) for r in rects)),
                ("decomposition rejoins", fp.normalize(rects) == x),
                ("empty decomposition iff zero", (len(rects) == 0) == x.is_zero()),
            ), x=x)
        # normalization is order- and splitting-invariant; an empty draw is
        # replaced by the unit rectangle, split by the unit
        for _ in range(max(1, cfg.trials // 4)):
            rects = [Rectangle(a.random_elem(rng), b.random_elem(rng))
                     for _ in range(rng.randint(0, 3))]
            base = fp.normalize(rects)
            shuffled = rects[:]
            rng.shuffle(shuffled)
            whole = rects or [Rectangle(a.one, b.one)]
            k = rng.randrange(len(rects)) if rects else 0
            cut = a.random_elem(rng) if rects else a.one
            r = whole[k]
            split = whole[:k] + [Rectangle(r.left & cut, r.right),
                                 Rectangle(r.left & ~cut, r.right)] + whole[k + 1:]
            s.table(where, (
                ("normalize order-free", fp.normalize(shuffled) == base),
                ("normalize split-free",
                 fp.normalize(split) == (base if rects else fp.one), bool(rects)),
            ), rects=rects)
        # evaluated identities
        for _ in range(max(1, cfg.trials // 4)):
            x = fp.random_elem(rng)
            y = fp.random_elem(rng)
            z = fp.random_elem(rng)
            sp = fp.embed_left(a.random_elem(rng))
            s.table(where, (
                ("de morgan", ~(x & y) == (~x | ~y)),
                ("dsum expansion", (x ^ y) == ((x & ~y) | (~x & y))),
                ("meet assoc", (x & y) & z == x & (y & z)),
                ("complement meet", (x & ~x).is_zero()),
                ("operand re-split", ((x & sp) | (x & ~sp)) == x),
            ), x=x, y=y)
    # collapse with a trivial factor
    triv = trivial_algebra()
    others = cfg.nontrivial[:2] or [powerset(1)]
    for other in others:
        for fp in (FreeProduct(triv, other), FreeProduct(other, triv)):
            s.check(fp.is_trivial, "trivial factor collapses the product")
            s.check(fp.zero == fp.one, "collapsed product has 0 = 1")
            s.check(fp.embed_left(fp.left.one) == fp.zero,
                    "embedding into the collapsed product")
        nb = FreeProduct(other, other)
        s.check(not nb.is_trivial and nb.zero != nb.one,
                "nontrivial factors keep the product nontrivial")
    return s


# -- place functions --------------------------------------------------------------


def _unit_on_support(f: PlaceFunction) -> PlaceFunction:
    """The unit's projection onto the band of a positive f, built by the
    lattice operations alone: n*f meet the unit, for n*f >= 1 on f's support."""
    n = ceil(1 / min(c for c, _ in f.terms))
    return places.meet(places.scale(n, f), places.unit(f.backend))


def suite_place_addition(cfg: SuiteConfig, rng: random.Random) -> _Suite:
    s = _Suite()
    for alg in cfg.nontrivial:
        where = alg.name or alg.kind
        for _ in range(cfg.trials):
            f = places.random_place(alg, rng)
            g = places.random_place(alg, rng)
            h = places.random_place(alg, rng)
            lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            fg = places.add_refine(f, g)
            # a draw outside a precondition is replaced by one built from
            # it: g by f v g above f, a negative lam by -lam
            ordered = places.leq(f, g)
            above = g if ordered else places.join(f, g)
            mu = abs(lam)
            s.table(where, (
                ("addition oracle", places.add_formula(f, g) == fg),
                ("add comm", fg == places.add_refine(g, f)),
                ("add zero", places.add_refine(f, places.zero(alg)) == f),
                ("add inverse", (f + (-f)).is_zero()),
                ("add assoc", fg + h == f + (g + h)),
                ("scale distributes",
                 places.scale(lam, fg) == places.scale(lam, f) + places.scale(lam, g)),
                ("scale zero", places.scale(0, f).is_zero()),
                ("scale one", places.scale(1, f) == f),
                ("meet+join identity", places.meet(f, g) + places.join(f, g) == fg),
                ("abs symmetric", places.abs_(places.scale(-1, f)) == places.abs_(f)),
                ("order translation", places.leq(f + h, above + h), ordered),
                ("positive scaling of the positive part",
                 places.pos_part(places.scale(mu, f)) == places.scale(mu, places.pos_part(f)),
                 lam >= 0),
                # canonical forms identify equivalent representations
                ("representation invariance",
                 places.canonicalize(alg, tensor.split_representation(f, rng)) == f),
                # reconstruction from canonical form (the linear span)
                ("span reconstruction",
                 reduce(add, (places.scale(c, places.chi(x)) for c, x in f.terms),
                        places.zero(alg)) == f),
            ), f=f, g=g, h=h, lam=lam)
        # components are exactly the characteristics; a positive f that is
        # no component is replaced by the unit's projection onto its band
        for _ in range(max(1, cfg.trials // 2)):
            x = alg.random_elem(rng)
            f = places.random_place(alg, rng, positive=True)
            component = places.is_component(f)
            s.table(where, (
                ("chi is a component", places.is_component(places.chi(x))),
                ("components are characteristics",
                 places.as_element(f if component else _unit_on_support(f)) is not None,
                 component),
            ), x=x, f=f)
        # no infinitely small elements: an explicit multiple escapes any
        # bound; a zero draw is replaced by the unit, bounded by itself
        if alg.kind == POWERSET:
            e = places.unit(alg)
            for _ in range(max(1, cfg.trials // 2)):
                f = places.random_place(alg, rng, positive=True)
                drawn = not f.is_zero()
                f, g = (f, f + places.random_place(alg, rng, positive=True)) if drawn else (e, e)
                n = max(c for c, _ in g.terms) // min(c for c, _ in f.terms) + 1
                s.check(not places.leq(places.scale(n, f), g), "archimedean escape", where,
                        drawn, f=f, g=g, n=n)
        if alg.kind == POWERSET and alg.atom_count <= 5:
            _check_chi_isomorphism(s, alg)
    return s


def _check_chi_isomorphism(s: _Suite, alg: Algebra) -> None:
    """Exhaustively: chi is a bijection onto the components of the unit and
    preserves meet, disjoint sum, and the unit."""
    where = alg.name or alg.kind
    e = places.unit(alg)
    elems = list(alg.elements())
    images = [places.chi(x) for x in elems]
    s.check(len(set(images)) == len(elems), "chi injective", where)
    s.check(all(places.is_component(f) for f in images), "chi lands in components", where)
    s.check(places.chi(alg.one) == e, "chi preserves the unit", where)
    # every component arises: components of e are exactly the 0/1 vectors
    space = tensor.atom_space(alg)
    image_set = set(images)
    for bits in range(1 << alg.atom_count):
        v = AtomVector(space, tuple(Fraction(bits >> i & 1)
                                    for i in range(alg.atom_count)))
        comp = tensor.from_atom_model(alg, v)
        s.check(places.is_component(comp), "0/1 vector is a component", where)
        s.check(comp in image_set, "chi onto components", where, vector=v)
    for x, cx in zip(elems, images):
        for y, cy in zip(elems, images):
            # disjoint sum inside the component algebra
            lhs = places.join(places.meet(cx, e - cy), places.meet(e - cx, cy))
            s.table(where, (
                ("chi preserves meet", places.meet(cx, cy) == places.chi(x & y)),
                ("chi preserves disjoint sum", lhs == places.chi(x ^ y)),
            ), x=x, y=y)


# -- regularity -------------------------------------------------------------------


def suite_regularity(cfg: SuiteConfig, rng: random.Random) -> _Suite:
    s = _Suite()
    for alg in cfg.nontrivial:
        where = alg.name or alg.kind
        # a family of zeros only, or a zero singleton, is replaced by the
        # complement of its zero: the unit
        for _ in range(max(1, cfg.trials // 8)):
            xs = []
            for _ in range(rng.randint(1, 4)):
                x = alg.random_elem(rng)
                if not x.is_zero():
                    xs.append(x)
            family = xs or [alg.one]
            verdict = places.check_regularity(family, alg.sup(family), rng=rng, trials=30)
            s.check(verdict.ok, "join survives into place functions", where, bool(xs),
                    xs=family, detail=verdict.detail)
        x = alg.random_elem(rng)
        single = ~x if x.is_zero() else x
        verdict = places.check_regularity([single], single, rng=rng, trials=10)
        s.check(verdict.ok, "singleton family", where, not x.is_zero(), x=single)
    return s


# -- tensor isomorphism -----------------------------------------------------------


def suite_tensor_iso(cfg: SuiteConfig, rng: random.Random) -> _Suite:
    s = _Suite()
    powersets = cfg.powersets
    pairs = [(a, b) for a in powersets for b in powersets
             if a.atom_count * b.atom_count <= MAX_ATOMS]
    for a, b in pairs:
        t = tensor.TensorMap(a, b)
        fp = t.fp
        space = t.space
        where = fp.name
        for _ in range(max(1, cfg.trials // 2)):
            v = tensor.random_vector(space, rng)
            w = tensor.random_vector(space, rng)
            lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            s.table(where, (
                ("T additive", t.apply(v + w) == t.apply(v) + t.apply(w)),
                ("T homogeneous", t.apply(v.scale(lam)) == places.scale(lam, t.apply(v))),
                ("T preserves absolute value", t.apply(v.abs()) == places.abs_(t.apply(v))),
                ("T preserves join",
                 t.apply(v.join(w)) == places.join(t.apply(v), t.apply(w))),
            ), v=v, w=w, lam=lam)
        # T closes the triangle: through the pure tensor equals the
        # double-sum map on place functions
        va_space = tensor.atom_space(a)
        vb_space = tensor.atom_space(b)
        for p in va_space:
            for q in vb_space:
                v = tensor.pure_tensor(tensor.indicator(va_space, p),
                                       tensor.indicator(vb_space, q))
                lhs = t.apply(v)
                rhs = tensor.psi(fp, places.chi(a.subset([p])),
                                 places.chi(b.subset([q])))
                s.check(lhs == rhs, "T o tensor = psi on indicators", where, pair=[p, q])
        for _ in range(max(1, cfg.trials // 2)):
            va = tensor.random_vector(va_space, rng)
            vb = tensor.random_vector(vb_space, rng)
            lhs = t.apply(tensor.pure_tensor(va, vb))
            rhs = tensor.psi(fp, tensor.from_atom_model(a, va),
                             tensor.from_atom_model(b, vb))
            s.check(lhs == rhs, "T o tensor = psi", where, va=va, vb=vb)
        onto = tensor.verify_T_onto_and_injective(a, b, rng=rng)
        s.check(onto.ok, "onto and injective", where, detail=onto.detail)
        s.check(onto.rank == len(space), "full rank", where, rank=onto.rank)
        s.note(f"{where}: rank", rank=onto.rank, dimension=onto.dimension)
    # the double-sum map is a bimorphism, place-function level
    bimorphism_pairs = pairs[:2]
    for fc in cfg.fincofs:
        bimorphism_pairs.append((fc, fc))
    for a, b in bimorphism_pairs:
        fp = FreeProduct(a, b)
        m = lambda f, g: tensor.psi(fp, f, g)  # noqa: E731
        verdict = tensor.verify_bimorphism(m, PlaceSpace(a), PlaceSpace(b),
                                           trials=max(1, cfg.trials // 4), rng=rng)
        s.check(verdict.ok, "psi is a bimorphism", fp.name,
                law=verdict.law, witness=verdict.witness)
        # representation independence: splitting a support changes nothing
        for _ in range(max(1, cfg.trials // 4)):
            f = places.random_place(a, rng)
            g = places.random_place(b, rng)
            base = tensor.psi(fp, f, g)
            split_f = tensor.split_representation(f, rng)
            s.check(tensor.psi_terms(fp, split_f, g.terms) == base,
                    "psi representation independence", fp.name, f=f, g=g)
    # the pointwise-product bimorphism on coordinates
    if pairs:
        a, b = pairs[0]
        E = VectorSpace(tensor.atom_space(a))
        F = VectorSpace(tensor.atom_space(b))
        verdict = tensor.verify_bimorphism(tensor.pure_tensor, E, F,
                                           trials=max(1, cfg.trials // 4), rng=rng)
        s.check(verdict.ok, "pure tensor is a bimorphism", law=verdict.law)
        # negative control: adding a fixed nonzero slice breaks one slot
        fp = FreeProduct(a, b)
        g0 = places.chi(b.subset([1]))
        broken = lambda f, g: places.add_refine(  # noqa: E731
            tensor.psi(fp, f, g), tensor.psi(fp, f, g0))
        verdict = tensor.verify_bimorphism(broken, PlaceSpace(a), PlaceSpace(b),
                                           trials=50, rng=rng)
        if s.check(not verdict.ok, "broken-bimorphism fixture must be rejected"):
            s.note("broken-bimorphism fixture rejected", law=verdict.law,
                   witness=verdict.witness)
    return s


# -- universal property -----------------------------------------------------------


def suite_universal_property(cfg: SuiteConfig, rng: random.Random) -> _Suite:
    s = _Suite()
    powersets = cfg.powersets
    sources = [a for a in powersets if a.atom_count <= 3] or [powerset(2)]
    targets = powersets or [powerset(2)]
    hom_pairs = min(cfg.trials, 100)
    for _ in range(hom_pairs):
        a = rng.choice(sources)
        b = rng.choice(sources)
        d = rng.choice(targets)
        fp = FreeProduct(a, b)
        phi_a = Hom.from_atom_map(a, d, [rng.randint(1, a.atom_count)
                                         for _ in range(d.atom_count)])
        phi_b = Hom.from_atom_map(b, d, [rng.randint(1, b.atom_count)
                                         for _ in range(d.atom_count)])
        ind = InducedHom(phi_a, phi_b, d)
        for x in a.elements():
            s.check(ind(fp.embed_left(x)) == phi_a(x), "induced map commutes on the left",
                    x=x)
        for y in b.elements():
            s.check(ind(fp.embed_right(y)) == phi_b(y), "induced map commutes on the right",
                    y=y)
        s.check(ind(fp.one) == d.one, "induced map preserves the unit")
        s.check(ind(fp.zero) == d.zero, "induced map preserves zero")
        # uniqueness spot-check: a second route through disjoint rectangles
        # agrees everywhere sampled
        for _ in range(5):
            x = fp.random_elem(rng)
            s.check(ind.via_rectangles(x) == ind(x),
                    "second candidate agrees with the induced map", x=x)
    # the Riesz-side factorization through the atom-pair model
    if powersets:
        a = sources[0]
        b = sources[-1]
        pair = tensor.pair_space(a, b)
        check = tensor.verify_universal_property(
            a, b, tensor.pure_tensor, pair, trials=max(1, cfg.trials // 4), rng=rng)
        s.check(check.ok, "pure tensor factors as the identity", detail=check.detail)
        if check.ok and check.induced is not None:
            ident = all(check.induced.matrix[i][j] == (1 if i == j else 0)
                        for i in range(len(pair)) for j in range(len(pair)))
            s.check(ident, "induced matrix of the pure tensor is the identity")
        fp = FreeProduct(a, b)

        def through_places(v, w):
            f = tensor.from_atom_model(a, v)
            g = tensor.from_atom_model(b, w)
            return tensor.to_atom_model(tensor.psi(fp, f, g))

        check = tensor.verify_universal_property(
            a, b, through_places, pair, trials=max(1, cfg.trials // 4), rng=rng)
        s.check(check.ok, "the double-sum map factors through the model",
                detail=check.detail)
        if check.ok and check.induced is not None:
            t_matrix = tensor.TensorMap(a, b).as_matrix()
            s.check(check.induced.matrix == t_matrix.matrix,
                    "induced map equals the tensor map, coordinatewise")
            s.check(check.induced.riesz_shape(), "induced map has lattice shape")
            s.check(check.induced.preserves_abs(rng), "induced map preserves abs")
        # a permuted bimorphism induces exactly that permutation
        perm = list(range(len(pair)))
        rng.shuffle(perm)

        def permuted(v, w):
            base = through_places(v, w)
            vals = [Fraction(0)] * len(pair)
            for i, val in enumerate(base.values):
                vals[perm[i]] = val
            return AtomVector(pair, tuple(vals))

        check = tensor.verify_universal_property(
            a, b, permuted, pair, trials=max(1, cfg.trials // 4), rng=rng)
        s.check(check.ok, "permuted bimorphism factors", detail=check.detail)
        if check.ok and check.induced is not None:
            want = all(check.induced.matrix[perm[i]][i] == 1
                       and sum(1 for x in check.induced.matrix[perm[i]] if x != 0) == 1
                       for i in range(len(pair)))
            s.check(want, "induced map is the expected permutation")
    return s


# -- bands ------------------------------------------------------------------------


def suite_bands(cfg: SuiteConfig, rng: random.Random) -> _Suite:
    s = _Suite()
    dims = sorted({a.atom_count for a in cfg.powersets} | {4})
    for dim in dims:
        space = tuple(range(1, dim + 1))
        where = f"dim {dim}"
        for _ in range(max(1, cfg.trials // 2)):
            v = tensor.random_vector(space, rng)
            w = tensor.random_vector(space, rng)
            cut = rng.getrandbits(dim)
            v = AtomVector(space, tuple(a if cut >> i & 1 else Fraction(0)
                                        for i, a in enumerate(v.values)))
            w = AtomVector(space, tuple(Fraction(0) if cut >> i & 1 else a
                                        for i, a in enumerate(w.values)))
            # sampled members of the two bands stay lattice-disjoint
            h1, h2 = (AtomVector(space, tuple(x if band.contains(l) else Fraction(0) for l, x
                                              in zip(space, tensor.random_vector(space, rng).values)))
                      for band in (band_model.principal_band(v), band_model.principal_band(w)))
            s.table(where, (
                ("constructed pair is disjoint", v.abs().meet(w.abs()).is_zero()),
                ("disjoint elements span disjoint bands", band_model.bands_disjoint(v, w)),
                ("band members stay disjoint", h1.abs().meet(h2.abs()).is_zero()),
            ), v=v, w=w)
        # supports that do not overlap are filled out: each zero
        # coordinate set to 1
        x = tensor.random_vector(space, rng)
        y = tensor.random_vector(space, rng)
        overlap = any(a and b for a, b in zip(x.values, y.values))
        if not overlap:
            x, y = (AtomVector(space, tuple(c or Fraction(1) for c in u.values)) for u in (x, y))
        s.check(not band_model.bands_disjoint(x, y),
                "overlapping supports share a band direction", where, overlap, x=x, y=y)
    # the band lattice is the powerset algebra, and it is complete
    for n in (1, 2, 3, 4):
        cert = certs.check_finite_completeness(band_model.band_algebra(n))
        s.check(cert.subsets_checked == (1 << (1 << n)) - 1,
                "band algebra is complete", f"dimension {n}", subsets=cert.subsets_checked)
    # in finite dimension the ideal and the band of f have the same members
    for n in range(1, 7):
        space = tuple(range(1, n + 1))
        f = tensor.random_vector(space, rng)
        band = band_model.principal_band(f)
        for mask in range(1 << n):
            support = frozenset(space[i] for i in range(n) if mask >> i & 1)
            g = AtomVector(space, tuple(Fraction(1) if space[i] in support else Fraction(0)
                                        for i in range(n)))
            in_band = band_model.principal_band(g).leq(band)
            in_ideal = _in_principal_ideal(g, f)
            s.check(in_band == in_ideal, "ideal and band members coincide", f"dim {n}",
                    support=sorted(support))
    # finite-dimensional contrast: the two band products are isomorphic
    pairs = sorted({(a.atom_count, b.atom_count)
                    for a in cfg.powersets for b in cfg.powersets
                    if a.atom_count * b.atom_count <= MAX_ATOMS} | {(2, 3)})
    for n, m in pairs:
        verdict = band_model.compare_band_products(n, m, pair_samples=cfg.trials, rng=rng)
        s.check(verdict.ok, "band product contrast", f"({n}, {m})", detail=verdict.detail)
        s.check(verdict.atoms_each == n * m, "band product atoms", f"({n}, {m})")
    return s


def _in_principal_ideal(g: AtomVector, f: AtomVector) -> bool:
    """Whether |g| <= k |f| for some natural k."""
    return all(gv == 0 or fv != 0 for gv, fv in zip(g.values, f.values))


# -- completeness -----------------------------------------------------------------


def suite_completeness(cfg: SuiteConfig, rng: random.Random) -> _Suite:
    s = _Suite()
    payload: dict = {"exhaustive": [], "model_bounded_sups": [],
                     "certificates": {}, "dichotomy": []}
    small = cfg.small_powersets
    for alg in small:
        cert = certs.check_finite_completeness(alg)
        expected = (1 << (1 << alg.atom_count)) - 1
        s.check(cert.subsets_checked == expected, "exhaustive completeness", alg.name,
                subsets=cert.subsets_checked)
        payload["exhaustive"].append({**cert.to_dict(), "algebra": alg.name})
        v = validate_certificate(cert.to_dict())
        s.check(v.ok, "certificate revalidates", alg.name, detail=v.detail)
    for alg in (a for a in cfg.algebras if a.is_trivial):
        payload["exhaustive"].append({**certs.check_finite_completeness(alg).to_dict(),
                                      "algebra": alg.name})
    # bounded-set suprema in the place-function spaces
    for alg in small:
        if alg.atom_count <= 3:
            verdict = certs.check_model_dedekind_complete(alg, rng, max(1, cfg.trials // 4))
            verdict["algebra"] = alg.name
            payload["model_bounded_sups"].append(verdict)
            s.check(verdict["ok"], "model bounded suprema", alg.name)
    pair_dims = sorted({(a.atom_count, b.atom_count) for a in small for b in small
                        if a.atom_count * b.atom_count <= 9})
    for n, m in pair_dims:
        fp = FreeProduct(powerset(n), powerset(m))
        verdict = certs.check_model_dedekind_complete(fp, rng, max(1, cfg.trials // 4))
        verdict["product"] = [n, m]
        payload["model_bounded_sups"].append(verdict)
        s.check(verdict["ok"], "product model bounded suprema", f"({n}, {m})")
    # the incompleteness certificates
    if cfg.fincofs:
        fc = cfg.fincofs[0]
        for key, family, top in (("evens", certs.EVENS_FAMILY, fc.one),
                                 ("diagonal", certs.DIAGONAL_FAMILY, FreeProduct(fc, fc).one)):
            cert = certs.no_supremum_certificate(family, top, steps=3)
            if s.check(isinstance(cert, certs.Certificate), "refuter runs", key):
                d = cert.to_dict()
                payload["certificates"][key] = d
                v = validate_certificate(d)
                s.check(v.ok and v.steps_checked >= 3, "no-supremum certificate revalidates",
                        key, detail=v.detail)
    # product completeness at tiny scale: finite times finite stays complete
    finite_pairs = sorted({(a.atom_count, b.atom_count) for a in small for b in small
                           if a.atom_count * b.atom_count <= 4})
    product_entries = []
    for n, m in finite_pairs:
        cert = certs.check_finite_completeness(FreeProduct(powerset(n), powerset(m)))
        ok = cert.subsets_checked == (1 << (1 << (n * m))) - 1
        product_entries.append({"pair": [n, m], "complete": ok})
        s.check(ok, "free product of finite algebras complete", f"({n}, {m})")
    payload["dichotomy"] = [
        {"case": "A = {0}", "status": "complete",
         "how": "the product collapses to one element; its single subset has a supremum"},
        {"case": "B = {0}", "status": "complete",
         "how": "symmetric to the previous case"},
        {"case": "A finite and B complete", "status": "verified at desk scale",
         "how": "finite x finite products checked exhaustively",
         "products": product_entries,
         "unverifiable": "an infinite complete factor is not finitely "
                         "representable element-wise, so this branch is out of "
                         "reach here and recorded rather than skipped"},
        {"case": "B finite and A complete", "status": "verified at desk scale",
         "how": "symmetric to the previous case"},
        {"case": "otherwise (two infinite factors)", "status": "incomplete",
         "how": "no_supremum certificates for the even-singleton and diagonal "
                "families"},
    ]
    s.certificate = payload
    return s


# -- orchestration ----------------------------------------------------------------


SUITES = {
    "core_axioms": suite_core_axioms,
    "homomorphisms": suite_homomorphisms,
    "free_product": suite_free_product,
    "place_addition": suite_place_addition,
    "regularity": suite_regularity,
    "tensor_iso": suite_tensor_iso,
    "universal_property": suite_universal_property,
    "bands": suite_bands,
    "completeness": suite_completeness,
}


def suite_rng(seed: int, name: str) -> random.Random:
    # string seeding hashes with sha512: stable across processes
    return random.Random(f"{seed}:{name}")


def run_suites(cfg: SuiteConfig) -> Report:
    """Run the configured suites.  A suite that raises fails one law,
    ``suite raised``, its witness naming the exception; the rest still run."""
    results = []
    for name in cfg.suites:
        started = time.perf_counter()
        try:
            outcome = SUITES[name](cfg, suite_rng(cfg.seed, name))
        except Exception as exc:  # config errors were raised before any suite
            outcome = _Suite()
            outcome.check(False, "suite raised", error=f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - started
        for law, (runs, _, _) in outcome.laws.items():
            if not runs:
                outcome.fail("law ran zero times", law=law)
        results.append(SuiteResult(name, "pass" if outcome.ok else "fail",
                                   outcome.witnesses, outcome.certificate,
                                   round(elapsed, 6), outcome.tally()))
    return Report(REPORT_VERSION, cfg.echo(), results)
