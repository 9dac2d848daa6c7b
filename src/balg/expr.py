"""Text grammar for elements and place functions.

Element grammar: literals ``{1,3}`` (powerset atom indices, 1-based),
``fin{0,2}`` / ``cof{1}`` (finite-cofinite), constants ``0`` and ``1``,
numbers in the ASCII digits ``0``-``9`` only;
operators ``!`` (complement, prefix), ``&`` (meet), ``(+)`` (disjoint sum),
``|`` (join), with precedence ``!`` > ``&`` > ``(+)`` > ``|``; parentheses.
Over a free product the literal ``rect(A_EXPR,B_EXPR)`` denotes a rectangle.
Parentheses, ``rect(`` and ``!`` nest at most ``MAX_DEPTH`` deep; deeper
text is an ExprError, not a RecursionError.

Place functions read and print as ``2*chi({1,2}) + 3*chi({2,3})`` with
exact rational coefficients ``p/q``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .algebra import Algebra, AlgebraError, Elem, FINITE_COFINITE, POWERSET, point_index
from .free_product import FreeProduct, Rectangle, RectForm
from . import places
from .tensor import AtomVector

Backend = Union[Algebra, FreeProduct]


class ExprError(ValueError):
    """Malformed expression text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_PUNCT = {"&": "AMP", "|": "PIPE", "!": "BANG", "(": "LPAREN", ")": "RPAREN",
          "{": "LBRACE", "}": "RBRACE", ",": "COMMA", "*": "STAR",
          "+": "PLUS", "-": "MINUS", "/": "SLASH"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("(+)", i):
            out.append(("OPLUS", "(+)", i))
            i += 3
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            out.append(("NUM", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            out.append(("NAME", text[i:j], i))
            i = j
            continue
        kind = _PUNCT.get(ch)
        if kind is None:
            raise ExprError(f"unexpected character {ch!r}", i)
        out.append((kind, ch, i))
        i += 1
    out.append(("EOF", "", n))
    return out


def _naturals(runs: list[str], pos: int) -> list[int]:
    """Values of digit runs starting at ``pos``; a run past the interpreter's
    limit on integer string conversion is an ExprError, not a ValueError."""
    try:
        return [int(r) for r in runs]
    except ValueError:
        raise ExprError(f"a number of {max(map(len, runs))} digits is too long", pos) from None


MAX_DEPTH = 100


class _Parser:
    """Recursive descent over a shared token stream; the backend travels as
    an argument so rect(...) can switch context for its two sides.  ``depth``
    counts the open parentheses, ``rect(`` and ``!`` around the current
    token."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def nest(self, pos: int) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprError(f"expression nested more than {MAX_DEPTH} deep", pos)

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ExprError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    # element grammar, loosest binding first
    def element(self, backend: Backend):
        x = self.xor_level(backend)
        while self.peek()[0] == "PIPE":
            self.next()
            x = x | self.xor_level(backend)
        return x

    def xor_level(self, backend: Backend):
        x = self.and_level(backend)
        while self.peek()[0] == "OPLUS":
            self.next()
            x = x ^ self.and_level(backend)
        return x

    def and_level(self, backend: Backend):
        x = self.unary(backend)
        while self.peek()[0] == "AMP":
            self.next()
            x = x & self.unary(backend)
        return x

    def unary(self, backend: Backend):
        if self.peek()[0] == "BANG":
            self.nest(self.next()[2])
            x = ~self.unary(backend)
            self.depth -= 1
            return x
        return self.primary(backend)

    def primary(self, backend: Backend):
        kind, value, pos = self.next()
        if kind == "LPAREN":
            self.nest(pos)
            x = self.element(backend)
            self.expect("RPAREN")
            self.depth -= 1
            return x
        if kind == "NUM" and value == "0":
            return backend.zero
        if kind == "NUM" and value == "1":
            return backend.one
        if kind == "LBRACE":
            atoms = self._numbers()
            self.expect("RBRACE")
            if not isinstance(backend, Algebra) or backend.kind != POWERSET or backend.is_trivial:
                raise ExprError("{...} literal outside a nontrivial powerset algebra", pos)
            return backend.subset(atoms)
        if kind == "NAME" and value in ("fin", "cof"):
            self.expect("LBRACE")
            support = self._numbers()
            self.expect("RBRACE")
            if not isinstance(backend, Algebra) or backend.kind != FINITE_COFINITE:
                raise ExprError(f"{value}{{...}} literal outside a finite_cofinite algebra", pos)
            return backend.fin(support) if value == "fin" else backend.cof(support)
        if kind == "NAME" and value == "rect":
            if not isinstance(backend, FreeProduct):
                raise ExprError("rect(...) literal outside a free product", pos)
            self.expect("LPAREN")
            self.nest(pos)
            left = self.element(backend.left)
            self.expect("COMMA")
            right = self.element(backend.right)
            self.expect("RPAREN")
            self.depth -= 1
            return backend.rect(left, right)
        raise ExprError(f"unexpected token {value!r}", pos)

    def _numbers(self) -> list[int]:
        runs, pos = [], self.peek()[2]
        if self.peek()[0] == "NUM":
            runs.append(self.next()[1])
            while self.peek()[0] == "COMMA":
                self.next()
                runs.append(self.expect("NUM")[1])
        return _naturals(runs, pos)

    # place-function grammar
    def place(self, backend: Backend) -> "places.PlaceFunction":
        if self.peek()[0] == "NUM" and self.peek()[1] == "0" and \
                self.tokens[self.pos + 1][0] == "EOF":
            self.next()
            return places.zero(backend)
        terms = [self.place_term(backend, Fraction(1))]
        while self.peek()[0] in ("PLUS", "MINUS"):
            sign = Fraction(1) if self.next()[0] == "PLUS" else Fraction(-1)
            terms.append(self.place_term(backend, sign))
        return places.canonicalize(backend, terms)

    def place_term(self, backend: Backend, sign: Fraction):
        if self.peek()[0] == "MINUS":
            self.next()
            sign = -sign
        kind, value, pos = self.peek()
        coeff = Fraction(1)
        if kind == "NUM":
            self.next()
            [num] = _naturals([value], pos)
            den = 1
            if self.peek()[0] == "SLASH":
                self.next()
                tok = self.expect("NUM")
                [den] = _naturals([tok[1]], tok[2])
                if den == 0:
                    raise ExprError("zero denominator", tok[2])
            coeff = Fraction(num, den)
            self.expect("STAR")
        tok = self.expect("NAME")
        if tok[1] != "chi":
            raise ExprError(f"expected chi, found {tok[1]!r}", tok[2])
        self.expect("LPAREN")
        x = self.element(backend)
        self.expect("RPAREN")
        return (sign * coeff, x)

    def finish(self, value):
        self.expect("EOF")
        return value


# a lone cell literal exactly as the serializers write it
_LITERAL = re.compile(r"(fin|cof)?\{([0-9]+(?:,[0-9]+)*)?\}|[01]")


def parse_element(backend: Backend, text: str):
    """Parse an element expression against a backend.

    A lone literal of the backend's own kind is read directly; any other
    text goes through the full parser.
    """
    m = _LITERAL.fullmatch(text)
    if m is not None:
        if text == "0":
            return backend.zero
        if text == "1":
            return backend.one
        head, body = m.groups()
        numbers = _naturals(body.split(","), m.start(2)) if body else []
        if isinstance(backend, Algebra):
            if head is None and backend.kind == POWERSET and not backend.is_trivial:
                return backend.subset(numbers)
            if head is not None and backend.kind == FINITE_COFINITE:
                return backend.fin(numbers) if head == "fin" else backend.cof(numbers)
    p = _Parser(text)
    return p.finish(p.element(backend))


def parse_place(backend: Backend, text: str) -> "places.PlaceFunction":
    p = _Parser(text)
    return p.finish(p.place(backend))


# -- serialization -------------------------------------------------------------


def elem_text(x: Elem) -> str:
    alg = x.alg
    if x.data == alg.kernel.zero:
        return "0"
    if x.data == alg.kernel.one:
        return "1"
    if alg.kind == POWERSET:
        atoms = [str(i + 1) for i in range(alg.atom_count) if x.data >> i & 1]
        return "{" + ",".join(atoms) + "}"
    mode, support = x.data
    return mode + "{" + ",".join(str(n) for n in support) + "}"


def rect_text(x: RectForm) -> str:
    """Disjoint-rectangle text form, parseable by the rect grammar."""
    if x.is_zero():
        return "0"
    if x == x.fp.one:
        return "1"
    parts = [f"rect({elem_text(r.left)},{elem_text(r.right)})"
             for r in x.decompose_disjoint()]
    return " | ".join(parts)


def element_text(x) -> str:
    return rect_text(x) if isinstance(x, RectForm) else elem_text(x)


def grid_dict(x: RectForm) -> dict:
    """Report form of a grid: cell lists plus the activity matrix."""
    return {
        "left_cells": [elem_text(c) for c in x.left_cells],
        "right_cells": [elem_text(c) for c in x.right_cells],
        "matrix": [[bool(row >> j & 1) for j in range(len(x.right_cells))]
                   for row in x.rows],
    }


_BIT = {True: "1", False: "0"}


def rectform_from_grid(fp: FreeProduct, payload: dict) -> RectForm:
    """Rebuild an element from its report form.

    Only the canonical grid that ``grid_dict`` writes is accepted: each axis
    partitions its unit into nonzero cells in strictly increasing
    ``sort_key`` order, no two rows and no two columns of the matrix
    coincide, and its entries are booleans.  Anything else, a matrix of the
    wrong shape included, raises ExprError.
    """
    left = [parse_element(fp.left, c) for c in payload["left_cells"]]
    right = [parse_element(fp.right, c) for c in payload["right_cells"]]
    matrix = payload["matrix"]
    if len(matrix) != len(left) or any(len(row) != len(right) for row in matrix):
        raise ExprError("grid matrix does not match its cells", 0)
    if fp.is_trivial:
        if left or right:
            raise ExprError("a grid over a trivial free product has no cells", 0)
        return RectForm(fp, (), (), ())
    for cells, alg in ((left, fp.left), (right, fp.right)):
        if any(c.is_zero() for c in cells):
            raise ExprError("grid cells are empty", 0)
        try:
            point_index(alg, cells)
        except AlgebraError as exc:
            raise ExprError(f"grid cells do not partition the unit: {exc}", 0) from None
        keys = [alg.sort_key(c) for c in cells]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ExprError("grid cells are not in canonical order", 0)
    try:
        # column j is bit j of its row's mask
        rows = [int("".join(map(_BIT.__getitem__, reversed(row))), 2)
                for row in matrix]
    except (KeyError, TypeError):
        raise ExprError("grid matrix entries must be true or false", 0) from None
    if len(set(rows)) != len(rows) or len(set(zip(*matrix))) != len(right):
        raise ExprError("grid has two equal rows or two equal columns", 0)
    return RectForm(fp, tuple(left), tuple(right), tuple(rows))


def place_text(f: "places.PlaceFunction") -> str:
    if not f.terms:
        return "0"
    parts = []
    for k, (coeff, support) in enumerate(f.terms):
        mag = abs(coeff)
        body = f"chi({element_text(support)})" if mag == 1 else \
            f"{mag}*chi({element_text(support)})"
        if k == 0:
            parts.append(("-" if coeff < 0 else "") + body)
        else:
            parts.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(parts)


def serialize_value(x) -> object:
    """JSON-able rendering of library values, in the expression grammar."""
    if isinstance(x, Elem):
        return elem_text(x)
    if isinstance(x, places.PlaceFunction):
        return place_text(x)
    if isinstance(x, AtomVector):
        return {"space": [list(l) if isinstance(l, tuple) else l for l in x.space],
                "values": [str(v) for v in x.values]}
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, RectForm):
        return grid_dict(x)
    if isinstance(x, Rectangle):
        return [elem_text(x.left), elem_text(x.right)]
    if isinstance(x, (list, tuple)):
        return [serialize_value(v) for v in x]
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    raise TypeError(f"no report form for {type(x).__name__}")
