"""Verification suites over configured backends, with JSON reporting.

Each suite is a pure function of (config, seed): the per-suite generator is
seeded from the config seed and the suite name, so identical configurations
reproduce byte-identical reports apart from the timing fields.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (Algebra, AlgebraError, Elem, Hom, POWERSET,
                      check_homomorphism, powerset, trivial_algebra)
from .free_product import FreeProduct, Rectangle, RectForm, induced_hom
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

    def to_dict(self) -> dict:
        return {"name": self.name, "verdict": self.verdict,
                "witnesses": self.witnesses, "certificate": self.certificate,
                "seconds": self.seconds}


@dataclass
class Report:
    version: str
    config_echo: dict
    suites: list[SuiteResult]

    @property
    def all_pass(self) -> bool:
        return all(s.verdict == "pass" for s in self.suites)

    def to_dict(self) -> dict:
        return {"version": self.version, "config_echo": self.config_echo,
                "suites": [s.to_dict() for s in self.suites]}


def serialize_value(x) -> object:
    """JSON-able rendering of library values, in the expression grammar."""
    if isinstance(x, Elem):
        return expr.elem_text(x)
    if isinstance(x, PlaceFunction):
        return expr.place_text(x)
    if isinstance(x, AtomVector):
        return {"space": [list(l) if isinstance(l, tuple) else l for l in x.space],
                "values": [str(v) for v in x.values]}
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, RectForm):
        return expr.grid_dict(x)
    if isinstance(x, Rectangle):
        return [expr.elem_text(x.left), expr.elem_text(x.right)]
    if isinstance(x, (list, tuple)):
        return [serialize_value(v) for v in x]
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    raise TypeError(f"no report form for {type(x).__name__}")


class _Suite:
    """Collects witnesses and the pass/fail verdict for one suite run."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.ok = True
        self.witnesses: list = []
        self.certificate: dict | None = None

    def check(self, condition: bool, label: str, **payload) -> bool:
        if not condition and self.ok:
            self.ok = False
            entry = {"failed": label}
            entry.update({k: serialize_value(v) for k, v in payload.items()})
            self.witnesses.append(entry)
        return condition

    def note(self, label: str, **payload) -> None:
        entry = {"note": label}
        entry.update({k: serialize_value(v) for k, v in payload.items()})
        self.witnesses.append(entry)


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


def _eval_tree_elem(node):
    tag = node[0]
    if tag == "const":
        return node[1]
    if tag == "not":
        return ~_eval_tree_elem(node[1])
    a = _eval_tree_elem(node[1])
    b = _eval_tree_elem(node[2])
    if tag == "and":
        return a & b
    if tag == "or":
        return a | b
    return a ^ b


def _eval_tree_sets(node, universe: frozenset):
    tag = node[0]
    if tag == "const":
        bits = node[1].alg.atom_mask(node[1])
        return {i for i in universe if bits >> i & 1}
    if tag == "not":
        return set(universe) - _eval_tree_sets(node[1], universe)
    a = _eval_tree_sets(node[1], universe)
    b = _eval_tree_sets(node[2], universe)
    if tag == "and":
        return a & b
    if tag == "or":
        return a | b
    return a ^ b


def suite_core_axioms(cfg: SuiteConfig, rng: random.Random) -> _Suite:
    s = _Suite(rng)
    for alg in cfg.algebras:
        label = alg.name or alg.kind
        for _ in range(cfg.trials):
            x = alg.random_elem(rng)
            y = alg.random_elem(rng)
            z = alg.random_elem(rng)
            laws = (
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
                ("leq-antisym", not (x.leq(y) and y.leq(x)) or x == y),
                ("leq-trans", not (x.leq(y) and y.leq(z)) or x.leq(z)),
                ("relcompl-zero", x.rel_complement(alg.zero) == x),
                ("relcompl-self", x.rel_complement(x) == alg.zero),
                ("relcompl-def", x.rel_complement(y) == (x & ~(x & y))),
            )
            for name, holds in laws:
                if not s.check(holds, f"{label}:{name}", x=x, y=y, z=z):
                    return s
        # join of a finite family is its least upper bound
        for _ in range(max(1, cfg.trials // 4)):
            xs = [alg.random_elem(rng) for _ in range(rng.randint(1, 4))]
            top = alg.sup(xs)
            s.check(all(v.leq(top) for v in xs), f"{label}:sup-bounds", xs=xs)
            if alg.kind == POWERSET and not alg.is_trivial:
                least = all(top.leq(b) for b in alg.elements()
                            if all(v.leq(b) for v in xs))
            else:
                least = True
                for _ in range(20):
                    b = alg.random_elem(rng)
                    if all(v.leq(b) for v in xs) and not top.leq(b):
                        least = False
                        break
            if not s.check(least, f"{label}:sup-least", xs=xs, join=top):
                return s
        if alg.kind == POWERSET and not alg.is_trivial:
            universe = frozenset(range(alg.atom_count))
            for _ in range(cfg.trials):
                tree = _random_expr_tree(alg, rng, 4)
                got = _eval_tree_elem(tree)
                want = _eval_tree_sets(tree, universe)
                same = _eval_tree_sets(("const", got), universe) == want
                if not s.check(same, f"{label}:expression-oracle", result=got):
                    return s
    return s


# -- homomorphisms ----------------------------------------------------------------


def suite_homomorphisms(cfg: SuiteConfig, rng: random.Random) -> _Suite:
    s = _Suite(rng)
    powersets = cfg.powersets
    for alg in powersets:
        exhaustive = alg.atom_count <= 3
        verdict = check_homomorphism(Hom.identity(alg), exhaustive=exhaustive,
                                     trials=cfg.trials, rng=rng)
        if not s.check(verdict.ok, f"identity on {alg.name}", axiom=verdict.axiom):
            return s
    for src in powersets:
        for dst in powersets:
            for _ in range(3):
                amap = [rng.randint(1, src.atom_count) for _ in range(dst.atom_count)]
                h = Hom.from_atom_map(src, dst, amap)
                exhaustive = src.atom_count <= 3
                verdict = check_homomorphism(h, exhaustive=exhaustive,
                                             trials=cfg.trials, rng=rng)
                if not s.check(verdict.ok, f"atom map {src.name}->{dst.name}",
                               atom_map=amap, axiom=verdict.axiom,
                               witness=verdict.witness):
                    return s
    for alg in cfg.fincofs:
        gens = [alg.fin([0]), alg.fin([1, 2])]
        h = Hom.from_generator_images(alg, alg, [(g, g) for g in gens])
        verdict = check_homomorphism(h, trials=cfg.trials, rng=rng)
        s.check(verdict.ok, f"generator-image identity on {alg.name}",
                axiom=verdict.axiom)
        target = powersets[0] if powersets else None
        if target is not None:
            # evaluation "at infinity": finite sets collapse to zero
            h2 = Hom.from_generator_images(alg, target,
                                           [(alg.fin([0]), target.zero),
                                            (alg.fin([3, 4]), target.zero)])
            verdict = check_homomorphism(h2, trials=cfg.trials, rng=rng)
            s.check(verdict.ok, f"finite-collapse {alg.name}->{target.name}",
                    axiom=verdict.axiom)
    # negative control: the constant-to-unit table is rejected with a
    # counterexample at the disjoint-sum axiom
    p2 = powerset(2, "fixture")
    broken = Hom.from_table(p2, p2, {x: p2.one for x in p2.elements()},
                            label="constant-to-1")
    verdict = check_homomorphism(broken, exhaustive=True)
    rejected = not verdict.ok and verdict.axiom == "disjoint-sum"
    s.check(rejected, "broken-homomorphism fixture must be rejected")
    if rejected:
        s.note("broken-homomorphism fixture rejected",
               axiom=verdict.axiom, pair=list(verdict.witness),
               lhs=verdict.lhs, rhs=verdict.rhs)
    return s


# -- free product -----------------------------------------------------------------


def _pairings(cfg: SuiteConfig) -> list[FreeProduct]:
    out = []
    for a in cfg.nontrivial:
        for b in cfg.nontrivial:
            if (a.kind == POWERSET and b.kind == POWERSET
                    and a.atom_count * b.atom_count > 16):
                continue
            out.append(FreeProduct(a, b))
    return out


def suite_free_product(cfg: SuiteConfig, rng: random.Random) -> _Suite:
    s = _Suite(rng)
    for fp in _pairings(cfg):
        a, b = fp.left, fp.right
        finite = a.kind == POWERSET and b.kind == POWERSET
        if finite:
            atoms = fp.atoms()
            n_m = a.atom_count * b.atom_count
            s.check(len(atoms) == n_m, f"{fp.name}: atom count", expected=n_m)
            s.check(all(not t.is_zero() for t in atoms), f"{fp.name}: atoms nonzero")
            s.check(all((atoms[i] & atoms[j]).is_zero()
                        for i in range(len(atoms)) for j in range(i + 1, len(atoms))),
                    f"{fp.name}: atoms disjoint")
            s.check(fp.sup(atoms) == fp.one, f"{fp.name}: atoms join to unit")
            if n_m <= 12:
                seen = set()
                for mask in range(1 << n_m):
                    seen.add(fp.from_atom_mask(mask))
                s.check(len(seen) == 1 << n_m, f"{fp.name}: element count",
                        expected=1 << n_m, got=len(seen))
            if n_m <= 6:
                for x in fp.elements():
                    for t in atoms:
                        meet = x & t
                        if not s.check(meet.is_zero() or meet == t,
                                       f"{fp.name}: atom minimality", x=x, atom=t):
                            return s
        # canonical embeddings are homomorphisms and injective
        for _ in range(max(1, cfg.trials // 4)):
            x = a.random_elem(rng)
            y = a.random_elem(rng)
            s.check(fp.embed_left(x & y) == (fp.embed_left(x) & fp.embed_left(y)),
                    f"{fp.name}: embed-left meet", x=x, y=y)
            s.check(fp.embed_left(x ^ y) == (fp.embed_left(x) ^ fp.embed_left(y)),
                    f"{fp.name}: embed-left dsum", x=x, y=y)
            if x != y:
                s.check(fp.embed_left(x) != fp.embed_left(y),
                        f"{fp.name}: embed-left injective", x=x, y=y)
            u = b.random_elem(rng)
            v = b.random_elem(rng)
            s.check(fp.embed_right(u & v) == (fp.embed_right(u) & fp.embed_right(v)),
                    f"{fp.name}: embed-right meet", u=u, v=v)
            if u != v:
                s.check(fp.embed_right(u) != fp.embed_right(v),
                        f"{fp.name}: embed-right injective", u=u, v=v)
        s.check(fp.embed_left(a.one) == fp.one, f"{fp.name}: embed-left unit")
        s.check(fp.embed_left(a.zero) == fp.zero, f"{fp.name}: embed-left zero")
        # nonzero rectangles (both sides nonzero stay nonzero)
        for _ in range(max(1, cfg.trials // 4)):
            x = a.random_elem(rng)
            y = b.random_elem(rng)
            if x.is_zero() or y.is_zero():
                continue
            if not s.check(not fp.rect(x, y).is_zero(),
                           f"{fp.name}: rectangle nonzero", x=x, y=y):
                return s
        # decomposition rejoins, disjointly
        for _ in range(max(1, cfg.trials // 2)):
            x = fp.random_elem(rng)
            rects = x.decompose_disjoint()
            s.check(all(not r.is_zero() for r in rects),
                    f"{fp.name}: decomposition nonzero", x=x)
            s.check(all((rects[i].left & rects[j].left).is_zero()
                        for i in range(len(rects)) for j in range(i + 1, len(rects))),
                    f"{fp.name}: decomposition disjoint", x=x)
            s.check(all(fp.rect(r.left, r.right).leq(x) for r in rects),
                    f"{fp.name}: decomposition below", x=x)
            if not s.check(fp.normalize(rects) == x,
                           f"{fp.name}: decomposition rejoins", x=x):
                return s
            s.check((len(rects) == 0) == x.is_zero(),
                    f"{fp.name}: empty decomposition iff zero", x=x)
        # normalization is order- and splitting-invariant
        for _ in range(max(1, cfg.trials // 4)):
            rects = [Rectangle(a.random_elem(rng), b.random_elem(rng))
                     for _ in range(rng.randint(0, 3))]
            base = fp.normalize(rects)
            shuffled = rects[:]
            rng.shuffle(shuffled)
            s.check(fp.normalize(shuffled) == base, f"{fp.name}: normalize order-free")
            if rects:
                k = rng.randrange(len(rects))
                cut = a.random_elem(rng)
                r = rects[k]
                split = rects[:k] + [Rectangle(r.left & cut, r.right),
                                     Rectangle(r.left & ~cut, r.right)] + rects[k + 1:]
                s.check(fp.normalize(split) == base, f"{fp.name}: normalize split-free")
        # evaluated identities
        for _ in range(max(1, cfg.trials // 4)):
            x = fp.random_elem(rng)
            y = fp.random_elem(rng)
            z = fp.random_elem(rng)
            s.check(~(x & y) == (~x | ~y), f"{fp.name}: de morgan", x=x, y=y)
            s.check((x ^ y) == ((x & ~y) | (~x & y)), f"{fp.name}: dsum expansion")
            s.check((x & y) & z == x & (y & z), f"{fp.name}: meet assoc")
            s.check((x & ~x).is_zero(), f"{fp.name}: complement meet")
            sp = fp.embed_left(a.random_elem(rng))
            s.check(((x & sp) | (x & ~sp)) == x, f"{fp.name}: operand re-split")
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


def suite_place_addition(cfg: SuiteConfig, rng: random.Random) -> _Suite:
    s = _Suite(rng)
    for alg in cfg.nontrivial:
        label = alg.name or alg.kind
        for _ in range(cfg.trials):
            f = places.random_place(alg, rng)
            g = places.random_place(alg, rng)
            h = places.random_place(alg, rng)
            lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            via_formula = places.add_formula(f, g)
            via_refine = places.add_refine(f, g)
            if not s.check(via_formula == via_refine, f"{label}: addition oracle",
                           f=f, g=g, formula=via_formula, refine=via_refine):
                return s
            s.check(via_refine == places.add_refine(g, f), f"{label}: add comm")
            s.check(places.add_refine(f, places.zero(alg)) == f, f"{label}: add zero")
            s.check((f + (-f)).is_zero(), f"{label}: add inverse")
            s.check((f + g) + h == f + (g + h), f"{label}: add assoc")
            s.check(places.scale(lam, f + g) == places.scale(lam, f) + places.scale(lam, g),
                    f"{label}: scale distributes")
            s.check(places.scale(0, f).is_zero(), f"{label}: scale zero")
            s.check(places.scale(1, f) == f, f"{label}: scale one")
            s.check(places.meet(f, g) + places.join(f, g) == f + g,
                    f"{label}: meet+join identity", f=f, g=g)
            s.check(places.abs_(places.scale(-1, f)) == places.abs_(f),
                    f"{label}: abs symmetric")
            if places.leq(f, g):
                s.check(places.leq(f + h, g + h), f"{label}: order translation")
            if lam >= 0:
                s.check(places.pos_part(places.scale(lam, f))
                        == places.scale(lam, places.pos_part(f)),
                        f"{label}: positive scaling of the positive part")
            # canonical forms identify equivalent representations
            split = tensor.split_representation(f, rng)
            s.check(places.canonicalize(alg, split) == f,
                    f"{label}: representation invariance", f=f)
            # reconstruction from canonical form (the linear span)
            rebuilt = places.zero(alg)
            for c, x in f.terms:
                rebuilt = rebuilt + places.scale(c, places.chi(x))
            s.check(rebuilt == f, f"{label}: span reconstruction", f=f)
        # components are exactly the characteristics
        for _ in range(max(1, cfg.trials // 2)):
            x = alg.random_elem(rng)
            s.check(places.is_component(places.chi(x)), f"{label}: chi is a component",
                    x=x)
            f = places.random_place(alg, rng, positive=True)
            if places.is_component(f):
                s.check(places.as_element(f) is not None,
                        f"{label}: components are characteristics", f=f)
        # no infinitely small elements: an explicit multiple escapes any bound
        if alg.kind == POWERSET:
            for _ in range(max(1, cfg.trials // 2)):
                f = places.random_place(alg, rng, positive=True)
                if f.is_zero():
                    continue
                g = f + places.random_place(alg, rng, positive=True)
                biggest = max(c for c, _ in g.terms)
                smallest = min(c for c, _ in f.terms)
                n = biggest // smallest + 1
                if not s.check(not places.leq(places.scale(n, f), g),
                               f"{label}: archimedean escape", f=f, g=g, n=n):
                    return s
        if alg.kind == POWERSET and alg.atom_count <= 5:
            _check_chi_isomorphism(s, alg)
            if not s.ok:
                return s
    return s


def _check_chi_isomorphism(s: _Suite, alg: Algebra) -> None:
    """Exhaustively: chi is a bijection onto the components of the unit and
    preserves meet, disjoint sum, and the unit."""
    label = alg.name or alg.kind
    e = places.unit(alg)
    elems = list(alg.elements())
    images = [places.chi(x) for x in elems]
    s.check(len(set(images)) == len(elems), f"{label}: chi injective")
    s.check(all(places.is_component(f) for f in images),
            f"{label}: chi lands in components")
    s.check(places.chi(alg.one) == e, f"{label}: chi preserves the unit")
    # every component arises: components of e are exactly the 0/1 vectors
    space = tensor.atom_space(alg)
    image_set = set(images)
    for bits in range(1 << alg.atom_count):
        v = AtomVector(space, tuple(Fraction(bits >> i & 1)
                                    for i in range(alg.atom_count)))
        comp = tensor.from_atom_model(alg, v)
        s.check(places.is_component(comp), f"{label}: 0/1 vector is a component")
        if not s.check(comp in image_set, f"{label}: chi onto components", vector=v):
            return
    for x in elems:
        for y in elems:
            ok = (places.meet(places.chi(x), places.chi(y)) == places.chi(x & y))
            if not s.check(ok, f"{label}: chi preserves meet", x=x, y=y):
                return
            # disjoint sum inside the component algebra
            cx, cy = places.chi(x), places.chi(y)
            lhs = places.join(places.meet(cx, e - cy), places.meet(e - cx, cy))
            if not s.check(lhs == places.chi(x ^ y),
                           f"{label}: chi preserves disjoint sum", x=x, y=y):
                return


# -- regularity -------------------------------------------------------------------


def suite_regularity(cfg: SuiteConfig, rng: random.Random) -> _Suite:
    s = _Suite(rng)
    for alg in cfg.nontrivial:
        label = alg.name or alg.kind
        for _ in range(max(1, cfg.trials // 8)):
            xs = []
            for _ in range(rng.randint(1, 4)):
                x = alg.random_elem(rng)
                if not x.is_zero():
                    xs.append(x)
            if not xs:
                continue
            verdict = places.check_regularity(xs, alg.sup(xs), rng=rng, trials=30)
            if not s.check(verdict.ok, f"{label}: join survives into place functions",
                           xs=xs, detail=verdict.detail):
                return s
        x = alg.random_elem(rng)
        if not x.is_zero():
            verdict = places.check_regularity([x], x, rng=rng, trials=10)
            s.check(verdict.ok, f"{label}: singleton family", x=x)
    return s


# -- tensor isomorphism -----------------------------------------------------------


def suite_tensor_iso(cfg: SuiteConfig, rng: random.Random,
                     break_bimorphism: bool = False) -> _Suite:
    s = _Suite(rng)
    powersets = cfg.powersets
    pairs = [(a, b) for a in powersets for b in powersets
             if a.atom_count * b.atom_count <= 16]
    for a, b in pairs:
        t = tensor.build_T(a, b)
        fp = t.fp
        space = t.space
        name = fp.name
        for _ in range(max(1, cfg.trials // 2)):
            v = tensor.random_vector(space, rng)
            w = tensor.random_vector(space, rng)
            lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            s.check(t.apply(v + w) == t.apply(v) + t.apply(w), f"{name}: T additive")
            s.check(t.apply(v.scale(lam)) == places.scale(lam, t.apply(v)),
                    f"{name}: T homogeneous")
            s.check(t.apply(v.abs()) == places.abs_(t.apply(v)),
                    f"{name}: T preserves absolute value", v=v)
            s.check(t.apply(v.join(w)) == places.join(t.apply(v), t.apply(w)),
                    f"{name}: T preserves join")
            if not s.ok:
                return s
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
                if not s.check(lhs == rhs, f"{name}: T o tensor = psi on indicators",
                               pair=[p, q]):
                    return s
        for _ in range(max(1, cfg.trials // 2)):
            va = tensor.random_vector(va_space, rng)
            vb = tensor.random_vector(vb_space, rng)
            lhs = t.apply(tensor.pure_tensor(va, vb))
            rhs = tensor.psi(fp, tensor.from_atom_model(a, va),
                             tensor.from_atom_model(b, vb))
            if not s.check(lhs == rhs, f"{name}: T o tensor = psi", va=va, vb=vb):
                return s
        onto = tensor.verify_T_onto_and_injective(a, b, rng=rng)
        s.check(onto.ok, f"{name}: onto and injective", detail=onto.detail)
        s.check(onto.rank == len(space), f"{name}: full rank", rank=onto.rank)
        s.note(f"{name}: rank", rank=onto.rank, dimension=onto.dimension)
    # the double-sum map is a bimorphism, place-function level
    bimorphism_pairs = pairs[:2]
    for fc in cfg.fincofs:
        bimorphism_pairs.append((fc, fc))
    for a, b in bimorphism_pairs:
        fp = FreeProduct(a, b)
        E, F, H = PlaceSpace(a), PlaceSpace(b), PlaceSpace(fp)
        m = lambda f, g: tensor.psi(fp, f, g)  # noqa: E731
        verdict = tensor.verify_bimorphism(m, E, F, H,
                                           trials=max(1, cfg.trials // 4), rng=rng)
        if not s.check(verdict.ok, f"{fp.name}: psi is a bimorphism",
                       law=verdict.law, witness=verdict.witness):
            return s
        # representation independence: splitting a support changes nothing
        for _ in range(max(1, cfg.trials // 4)):
            f = places.random_place(a, rng)
            g = places.random_place(b, rng)
            base = tensor.psi(fp, f, g)
            split_f = tensor.split_representation(f, rng)
            s.check(tensor.psi_terms(fp, split_f, g.terms) == base,
                    f"{fp.name}: psi representation independence", f=f, g=g)
    # the pointwise-product bimorphism on coordinates
    if pairs:
        a, b = pairs[0]
        E = VectorSpace(tensor.atom_space(a))
        F = VectorSpace(tensor.atom_space(b))
        H = VectorSpace(tensor.pair_space(a, b))
        verdict = tensor.verify_bimorphism(tensor.pure_tensor, E, F, H,
                                           trials=max(1, cfg.trials // 4), rng=rng)
        s.check(verdict.ok, "pure tensor is a bimorphism", law=verdict.law)
        # negative control: adding a fixed nonzero slice breaks one slot
        fp = FreeProduct(a, b)
        g0 = places.chi(b.subset([1]))
        broken = lambda f, g: places.add_refine(  # noqa: E731
            tensor.psi(fp, f, g), tensor.psi(fp, f, g0))
        verdict = tensor.verify_bimorphism(broken, PlaceSpace(a), PlaceSpace(b),
                                           PlaceSpace(fp), trials=50, rng=rng)
        rejected = not verdict.ok
        s.check(rejected, "broken-bimorphism fixture must be rejected")
        if rejected:
            s.note("broken-bimorphism fixture rejected", law=verdict.law,
                   witness=verdict.witness)
        if break_bimorphism:
            # deliberately report the broken fixture as the map under test
            s.check(verdict.ok, "deliberately broken bimorphism fixture",
                    law=verdict.law, witness=verdict.witness)
    return s


# -- universal property -----------------------------------------------------------


def suite_universal_property(cfg: SuiteConfig, rng: random.Random) -> _Suite:
    s = _Suite(rng)
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
        ind = induced_hom(phi_a, phi_b, d)
        for x in a.elements():
            if not s.check(ind(fp.embed_left(x)) == phi_a(x),
                           "induced map commutes on the left", x=x):
                return s
        for y in b.elements():
            if not s.check(ind(fp.embed_right(y)) == phi_b(y),
                           "induced map commutes on the right", y=y):
                return s
        s.check(ind(fp.one) == d.one, "induced map preserves the unit")
        s.check(ind(fp.zero) == d.zero, "induced map preserves zero")
        # uniqueness spot-check: a second route through disjoint rectangles
        # agrees everywhere sampled
        for _ in range(5):
            x = fp.random_elem(rng)
            if not s.check(ind.via_rectangles(x) == ind(x),
                           "second candidate agrees with the induced map", x=x):
                return s
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
            t_matrix = tensor.build_T(a, b).as_matrix()
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
    s = _Suite(rng)
    dims = sorted({a.atom_count for a in cfg.powersets} | {4})
    for dim in dims:
        space = tuple(range(1, dim + 1))
        for _ in range(max(1, cfg.trials // 2)):
            v = tensor.random_vector(space, rng)
            w = tensor.random_vector(space, rng)
            cut = rng.getrandbits(dim)
            v = AtomVector(space, tuple(a if cut >> i & 1 else Fraction(0)
                                        for i, a in enumerate(v.values)))
            w = AtomVector(space, tuple(Fraction(0) if cut >> i & 1 else a
                                        for i, a in enumerate(w.values)))
            if not s.check(v.abs().meet(w.abs()).is_zero(),
                           f"dim {dim}: constructed pair is disjoint"):
                return s
            if not s.check(band_model.bands_disjoint(v, w),
                           f"dim {dim}: disjoint elements span disjoint bands",
                           v=v, w=w):
                return s
            # sampled members of the two bands stay lattice-disjoint
            h1 = tensor.random_vector(space, rng)
            h1 = AtomVector(space, tuple(x if space[i] in v.support_labels() else Fraction(0)
                                         for i, x in enumerate(h1.values)))
            h2 = tensor.random_vector(space, rng)
            h2 = AtomVector(space, tuple(x if space[i] in w.support_labels() else Fraction(0)
                                         for i, x in enumerate(h2.values)))
            s.check(h1.abs().meet(h2.abs()).is_zero(),
                    f"dim {dim}: band members stay disjoint")
        x = tensor.random_vector(space, rng)
        y = tensor.random_vector(space, rng)
        if x.support_labels() & y.support_labels():
            s.check(not band_model.bands_disjoint(x, y),
                    f"dim {dim}: overlapping supports share a band direction")
    # the band lattice is the powerset algebra, and it is complete
    for n in (1, 2, 3, 4):
        alg = band_model.band_algebra(n)
        space = tuple(range(1, n + 1))
        for _ in range(20):
            b1 = band_model.elem_to_band(space, alg.random_elem(rng))
            b2 = band_model.elem_to_band(space, alg.random_elem(rng))
            e1 = band_model.band_to_elem(alg, b1)
            e2 = band_model.band_to_elem(alg, b2)
            s.check(band_model.band_to_elem(alg, b1.meet(b2)) == (e1 & e2),
                    "band meet corresponds")
            s.check(band_model.band_to_elem(alg, b1.join(b2)) == (e1 | e2),
                    "band join corresponds")
            s.check(band_model.band_to_elem(alg, b1.complement()) == ~e1,
                    "band complement corresponds")
        cert = certs.check_finite_completeness(alg)
        s.check(cert.subsets_checked == (1 << (1 << n)) - 1,
                f"band algebra at dimension {n} is complete",
                subsets=cert.subsets_checked)
    # in finite dimension the ideal and the band of f have the same members
    for n in range(1, 7):
        space = tuple(range(1, n + 1))
        f = tensor.random_vector(space, rng)
        band = band_model.principal_band(f)
        for mask in range(1 << n):
            support = frozenset(space[i] for i in range(n) if mask >> i & 1)
            g = AtomVector(space, tuple(Fraction(1) if space[i] in support else Fraction(0)
                                        for i in range(n)))
            in_band = band.contains(g)
            in_ideal = _in_principal_ideal(g, f)
            if not s.check(in_band == in_ideal,
                           f"dim {n}: ideal and band members coincide",
                           support=sorted(support)):
                return s
    # finite-dimensional contrast: the two band products are isomorphic
    pairs = sorted({(a.atom_count, b.atom_count)
                    for a in cfg.powersets for b in cfg.powersets
                    if a.atom_count * b.atom_count <= 16} | {(2, 3)})
    for n, m in pairs:
        verdict = band_model.compare_band_products(n, m, pair_samples=cfg.trials, rng=rng)
        s.check(verdict.ok, f"band product contrast at ({n}, {m})",
                detail=verdict.detail)
        s.check(verdict.atoms_each == n * m, f"band product atoms at ({n}, {m})")
    return s


def _in_principal_ideal(g: AtomVector, f: AtomVector) -> bool:
    """Whether |g| <= k |f| for some natural k."""
    for gv, fv in zip(g.values, f.values):
        if gv != 0 and fv == 0:
            return False
    return True


# -- completeness -----------------------------------------------------------------


def suite_completeness(cfg: SuiteConfig, rng: random.Random) -> _Suite:
    s = _Suite(rng)
    payload: dict = {"exhaustive": [], "model_bounded_sups": [],
                     "certificates": {}, "dichotomy": []}
    small = cfg.small_powersets
    for alg in small:
        cert = certs.check_finite_completeness(alg)
        expected = (1 << (1 << alg.atom_count)) - 1
        s.check(cert.subsets_checked == expected,
                f"{alg.name}: exhaustive completeness", subsets=cert.subsets_checked)
        entry = cert.to_dict()
        entry["algebra"] = alg.name
        payload["exhaustive"].append(entry)
        ok = validate_certificate(cert.to_dict()).ok
        s.check(ok, f"{alg.name}: certificate revalidates")
    trivial_declared = [a for a in cfg.algebras if a.is_trivial]
    for alg in trivial_declared:
        cert = certs.check_finite_completeness(alg)
        entry = cert.to_dict()
        entry["algebra"] = alg.name
        payload["exhaustive"].append(entry)
    # bounded-set suprema in the place-function model
    for alg in small:
        if alg.atom_count <= 3:
            verdict = certs.check_model_dedekind_complete(alg.atom_count, rng)
            verdict["algebra"] = alg.name
            payload["model_bounded_sups"].append(verdict)
            s.check(verdict["ok"], f"{alg.name}: model bounded suprema")
    pair_dims = sorted({(a.atom_count, b.atom_count) for a in small for b in small
                        if a.atom_count * b.atom_count <= 9})
    for n, m in pair_dims:
        verdict = certs.check_model_dedekind_complete(n * m, rng)
        verdict["product"] = [n, m]
        payload["model_bounded_sups"].append(verdict)
        s.check(verdict["ok"], f"product model bounded suprema at ({n}, {m})")
    # the incompleteness certificates
    if cfg.fincofs:
        fc = cfg.fincofs[0]
        cert = certs.no_supremum_certificate(certs.EVENS_FAMILY, fc.one, steps=3)
        s.check(isinstance(cert, certs.Certificate), "even-singleton refuter runs")
        if isinstance(cert, certs.Certificate):
            d = cert.to_dict()
            payload["certificates"]["evens"] = d
            v = validate_certificate(d)
            s.check(v.ok and v.steps_checked >= 3,
                    "even-singleton certificate revalidates", detail=v.detail)
        fp = FreeProduct(fc, fc)
        cert = certs.no_supremum_certificate(certs.DIAGONAL_FAMILY, fp.one, steps=3)
        s.check(isinstance(cert, certs.Certificate), "diagonal refuter runs")
        if isinstance(cert, certs.Certificate):
            d = cert.to_dict()
            payload["certificates"]["diagonal"] = d
            v = validate_certificate(d)
            s.check(v.ok and v.steps_checked >= 3,
                    "diagonal certificate revalidates", detail=v.detail)
    # product completeness at tiny scale: finite times finite stays complete
    finite_pairs = sorted({(a.atom_count, b.atom_count) for a in small for b in small
                           if a.atom_count * b.atom_count <= 4})
    product_entries = []
    for n, m in finite_pairs:
        ok = _product_exhaustively_complete(n, m)
        product_entries.append({"pair": [n, m], "complete": ok})
        s.check(ok, f"free product of finite algebras complete at ({n}, {m})")
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


def _product_exhaustively_complete(n: int, m: int) -> bool:
    """Every nonempty subset of the free product of two powersets has a least
    upper bound; atom masks order-embed the product into a powerset."""
    fp = FreeProduct(powerset(n), powerset(m))
    count = 1 << fp.atom_count
    if count > 16:
        raise AlgebraError(f"exhaustive product check capped at 16 elements, got {count}")
    elems = [fp.from_atom_mask(mask) for mask in range(count)]
    masks = {fp.atom_mask(x) for x in elems}
    if masks != set(range(count)):
        return False
    return certs.subset_without_supremum(count) is None


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
    results = []
    for name in cfg.suites:
        started = time.perf_counter()
        outcome = SUITES[name](cfg, suite_rng(cfg.seed, name))
        elapsed = time.perf_counter() - started
        results.append(SuiteResult(name, "pass" if outcome.ok else "fail",
                                   outcome.witnesses, outcome.certificate,
                                   round(elapsed, 6)))
    return Report(REPORT_VERSION, cfg.echo(), results)
