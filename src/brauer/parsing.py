"""Text grammar for polynomials, rational functions, symbols and places.

Polynomials use integer coefficients, `t`, `*` and `^` (e.g. `t^2+3*t+1`);
rational functions are `num/den`; symbols are `(a,b)_n`, optionally with an
integer multiplicity prefix `k*(a,b)_n`, joined by `+` or `-`.  No power or
product of degree above MAX_DEGREE is built: TableSizeError is raised first.
"""

from __future__ import annotations

import math
import re

from .cohomology import TABLE_GUARD, TableSizeError
from .finitefield import FiniteField
from .poly import Poly
from .ratfunc import Place, RatFunc
from .residues import SymbolClass


class ParseError(ValueError):
    pass


# reading a degree-d argument at a place divides by pi up to d times, so the
# work is O(d^2); holding d to isqrt(TABLE_GUARD) keeps d^2 within the guard
MAX_DEGREE = math.isqrt(TABLE_GUARD)


def _check_degree(degree: int):
    if degree > MAX_DEGREE:
        raise TableSizeError(f"polynomial of degree {degree} exceeds the "
                             f"parse bound {MAX_DEGREE}")


_TOKEN = re.compile(r"\s*(\d+|t|\^|\*|\+|-|/|\(|\)|,)")


def _tokenize(s: str):
    out = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise ParseError(f"unexpected character at {s[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _PolyParser:
    def __init__(self, tokens, field: FiniteField):
        self.tokens = tokens
        self.i = 0
        self.field = field

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse_expr(self) -> Poly:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        acc = self.parse_term() * self.field.element(sign)
        while self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
            acc = acc + self.parse_term() * self.field.element(sign)
        return acc

    def parse_term(self) -> Poly:
        acc = self.parse_factor()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.take()
            elif nxt not in ("t", "("):  # these juxtapose: 3t, 2(t+1)
                return acc
            factor = self.parse_factor()
            _check_degree(acc.degree + factor.degree)
            acc = acc * factor

    def _power(self, base: Poly) -> Poly:
        """base, raised to the exponent that follows it if there is one."""
        if self.peek() != "^":
            return base
        self.take()
        e = self.take()
        if e is None or not e.isdigit():
            raise ParseError("exponent must be an integer")
        _check_degree(base.degree * int(e))
        return base ** int(e)

    def parse_factor(self) -> Poly:
        tok = self.take()
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok == "(":
            inner = self.parse_expr()
            if self.take() != ")":
                raise ParseError("expected ')'")
            return self._power(inner)
        if tok == "t":
            return self._power(Poly.gen(self.field))
        if tok.isdigit():
            return self._power(Poly.constant(self.field, int(tok)))
        raise ParseError(f"unexpected token {tok!r} in polynomial")


def parse_poly(s: str, field: FiniteField) -> Poly:
    tokens = _tokenize(s)
    p = _PolyParser(tokens, field)
    out = p.parse_expr()
    if p.i != len(tokens):
        raise ParseError(f"trailing input {' '.join(tokens[p.i:])!r}")
    return out


def parse_ratfunc(s: str, field: FiniteField) -> RatFunc:
    parts = s.split("/")
    if len(parts) == 1:
        return RatFunc(parse_poly(s, field))
    if len(parts) == 2:
        den = parse_poly(parts[1], field)
        if den.is_zero():
            raise ParseError("zero denominator")
        return RatFunc(parse_poly(parts[0], field), den)
    raise ParseError("at most one '/' allowed")


def parse_place(s: str, field: FiniteField) -> Place:
    s = s.strip()
    if s in ("inf", "infinity", "oo"):
        return Place.infinity(field)
    f = parse_poly(s, field)
    if f.degree < 1:
        raise ParseError("a finite place needs a nonconstant polynomial")
    f = f.monic()
    try:
        return Place(field, f)
    except ValueError:
        raise ParseError(f"{f} is not irreducible") from None


_SYMBOL = re.compile(r"^\s*(?:(\d+)\s*\*\s*)?\((.*)\)\s*_\s*(\d+)\s*$")


def _split_top_level(s: str, seps: str):
    """Split on separators outside parentheses, keeping the signs."""
    parts = []
    depth = 0
    cur = ""
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses")
        if depth == 0 and ch in seps:
            if cur.strip():
                parts.append(cur)
            if ch == "-":
                parts.append("-")
            cur = ""
            continue
        cur += ch
    if depth != 0:
        raise ParseError("unbalanced parentheses")
    if cur.strip():
        parts.append(cur)
    return parts


def parse_symbol_sum(s: str, field: FiniteField, n: int | None = None
                     ) -> SymbolClass:
    """A `+`/`-` separated list of `(a,b)_n` terms; empty input is the zero
    class.  When n is omitted it is inferred from the first term."""
    s = s.strip()
    if not s:
        if n is None:
            raise ParseError("cannot infer n from an empty symbol sum")
        return SymbolClass(n, [])
    chunks = _split_top_level(s, "+-")
    terms = []
    sign = 1
    for chunk in chunks:
        if chunk == "-":
            sign = -1
            continue
        m = _SYMBOL.match(chunk)
        if not m:
            raise ParseError(f"cannot parse symbol term {chunk.strip()!r}")
        mult = int(m.group(1)) if m.group(1) else 1
        if n is None:
            n = int(m.group(3))
        if int(m.group(3)) != n:
            raise ParseError(
                f"symbol modulus {m.group(3)} does not match n={n}")
        inner = _split_top_level(m.group(2), ",")
        if len(inner) != 2:
            raise ParseError("a symbol needs exactly two arguments")
        a = parse_ratfunc(inner[0], field)
        b = parse_ratfunc(inner[1], field)
        if a.is_zero() or b.is_zero():
            raise ParseError("symbol arguments must be nonzero")
        terms.append((a, b, sign * mult))
        sign = 1
    return SymbolClass(n, terms)
