"""Text grammar for polynomials, rational functions, symbols and places.

Polynomials use integer coefficients, `t`, `*` and `^` (e.g. `t^2+3*t+1`);
rational functions are `num/den`; symbols are `(a,b)_n`, optionally with an
integer multiplicity prefix `k*(a,b)_n`, joined by `+` or `-`.  No power or
product of degree above MAX_DEGREE is built: TableSizeError is raised first.
Digit tokens of any length are read without Python's int-string limit: a
coefficient mod p, an exponent of a constant mod q - 1, and an exponent of
more than 4000 digits on a nonconstant polynomial as over MAX_DEGREE.
"""

from __future__ import annotations

import math
import re

from .cohomology import TABLE_GUARD, TableSizeError
from .finitefield import FiniteField
from .poly import Poly, _add, _mul, _neg, _pow, _sub
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


def _read_int(tok: str, m: int | None = None) -> int:
    """The value of a digit token, reduced mod m when m is given, read in
    chunks short enough for int()."""
    v = 0
    for i in range(0, len(tok), 1000):
        chunk = tok[i:i + 1000]
        v = v * 10 ** len(chunk) + int(chunk)
        if m is not None:
            v %= m
    return v


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
    """Recursive descent over the tokens; every production returns a key
    list (poly's kernels), and parse_poly builds the one Poly."""

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

    def parse_expr(self) -> list:
        F = self.field
        negate = self.peek() == "-"
        if self.peek() in ("+", "-"):
            self.take()
        acc = self.parse_term()
        if negate:
            acc = _neg(F, acc)
        while self.peek() in ("+", "-"):
            op = _sub if self.take() == "-" else _add
            acc = op(F, acc, self.parse_term())
        return acc

    def parse_term(self) -> list:
        acc = self.parse_factor()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.take()
            elif nxt not in ("t", "("):  # these juxtapose: 3t, 2(t+1)
                return acc
            factor = self.parse_factor()
            _check_degree(len(acc) + len(factor) - 2)
            acc = _mul(self.field, acc, factor)

    def _power(self, base: list) -> list:
        """base, raised to the exponent that follows it if there is one."""
        if self.peek() != "^":
            return base
        self.take()
        tok = self.take()
        if tok is None or not tok.isdigit():
            raise ParseError("exponent must be an integer")
        F = self.field
        if len(base) < 2:
            # a constant has c^e = c^e' for e, e' >= 1 with e = e' mod q - 1
            m = F.order - 1
            e = _read_int(tok, m) or (m if tok.strip("0") else 0)
            return _pow(F, base, e)
        digits = tok.lstrip("0") or "0"
        if len(digits) > 4000:  # a degree too long to print
            raise TableSizeError(f"exponent of {len(digits)} digits exceeds "
                                 f"the parse bound {MAX_DEGREE}")
        e, degree = int(digits), len(base) - 1
        _check_degree(degree * e)
        if not any(base[:-1]):  # a monomial: (c t^k)^e = c^e t^(ke)
            return [0] * (degree * e) + [F._kpow(base[-1], e)]
        return _pow(F, base, e)

    def parse_factor(self) -> list:
        tok = self.take()
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok == "(":
            inner = self.parse_expr()
            if self.take() != ")":
                raise ParseError("expected ')'")
            return self._power(inner)
        if tok == "t":
            return self._power([0, 1])
        if tok.isdigit():
            c = _read_int(tok, self.field.p)
            return self._power([c] if c else [])
        raise ParseError(f"unexpected token {tok!r} in polynomial")


def parse_poly(s: str, field: FiniteField) -> Poly:
    tokens = _tokenize(s)
    p = _PolyParser(tokens, field)
    out = p.parse_expr()
    if p.i != len(tokens):
        raise ParseError(f"trailing input {' '.join(tokens[p.i:])!r}")
    return Poly._raw(field, out)


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
    """Split on separators outside parentheses: a list of (separator, part)
    pairs, the first with separator "", blank parts kept."""
    parts = [["", ""]]
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses")
        if depth == 0 and ch in seps:
            parts.append([ch, ""])
        else:
            parts[-1][1] += ch
    if depth != 0:
        raise ParseError("unbalanced parentheses")
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
    if not chunks[0][1].strip():  # a leading sign
        chunks = chunks[1:]
    terms = []
    for sep, chunk in chunks:
        if not chunk.strip():
            raise ParseError(f"dangling or doubled sign in {s!r}")
        m = _SYMBOL.match(chunk)
        if not m:
            raise ParseError(f"cannot parse symbol term {chunk.strip()!r}")
        mult = _read_int(m.group(1)) if m.group(1) else 1
        if n is None:
            n = _read_int(m.group(3))
        if _read_int(m.group(3)) != n:
            raise ParseError(
                f"symbol modulus {m.group(3)} does not match n={n}")
        inner = _split_top_level(m.group(2), ",")
        if len(inner) != 2:
            raise ParseError("a symbol needs exactly two arguments")
        a = parse_ratfunc(inner[0][1], field)
        b = parse_ratfunc(inner[1][1], field)
        if a.is_zero() or b.is_zero():
            raise ParseError("symbol arguments must be nonzero")
        terms.append((a, b, -mult if sep == "-" else mult))
    return SymbolClass(n, terms)
