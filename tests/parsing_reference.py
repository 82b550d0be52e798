"""The recursive-descent parser that brauer.parsing used before its
productions became one pass over the tokens: one peek/take method call per
token, a key list for every factor and _mul/_add/_sub per operator.  Kept
verbatim as the oracle of the differential property in test_parsing.py;
the parse_* functions below are brauer.parsing's entry points on it."""

from __future__ import annotations

from unittest import mock

from brauer import parsing
from brauer.cohomology import check_work
from brauer.finitefield import FiniteField
from brauer.parsing import ParseError, _read_int, _tokenize
from brauer.poly import Poly, _add, _mul, _neg, _pow, _sub
from brauer.ratfunc import RatFunc
from brauer.residues import SymbolClass


class _Parser:
    """Recursive descent over one string's tokens, a method per production;
    the polynomial ones return key lists (poly's kernels)."""

    def __init__(self, s: str, field: FiniteField, n: int | None = None):
        self.tokens, self.rest = _tokenize(s)
        self.i = 0
        self.field = field
        self.n = n  # a symbol sum's modulus

    def peek(self):
        tok = self.tokens[self.i]
        if tok is None and self.rest is not None:
            raise ParseError(f"unexpected character at {self.rest!r}")
        return tok

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, want: str):
        if self.take() != want:
            raise ParseError(f"expected {want!r}")

    def take_int(self, what: str) -> str:
        tok = self.take()
        if tok is None or not tok.isdigit():
            raise ParseError(f"{what} must be an integer")
        return tok

    def parse_sum(self):
        """(n, terms); empty input is the zero class of a given n."""
        if self.peek() is None and self.n is not None:
            return self.n, []
        terms = []
        sign = self.take() if self.peek() in ("+", "-") else "+"
        while self.peek() not in ("+", "-", None):
            a, b, mult = self.parse_term()
            terms.append((a, b, -mult if sign == "-" else mult))
            if self.peek() not in ("+", "-"):
                return self.n, terms
            sign = self.take()
        if self.tokens[0] is None:
            raise ParseError("cannot infer n from an empty symbol sum")
        raise ParseError("dangling or doubled sign in symbol sum")

    def parse_term(self):
        mult = 1
        if self.peek().isdigit():
            mult = _read_int(self.take())
            self.expect("*")
        self.expect("(")
        a = self.parse_ratfunc()
        self.expect(",")
        b = self.parse_ratfunc()
        self.expect(")")
        self.expect("_")
        n = _read_int(self.take_int("a symbol modulus"))
        if self.n is None:
            self.n = n
        elif n != self.n:
            raise ParseError(f"symbol modulus {n} does not match n={self.n}")
        if a.is_zero() or b.is_zero():
            raise ParseError("symbol arguments must be nonzero")
        return a, b, mult

    def parse_ratfunc(self) -> RatFunc:
        num = Poly._raw(self.field, self.parse_expr())
        if self.peek() != "/":
            return RatFunc(num)
        self.take()
        den = self.parse_expr()
        if not den:
            raise ParseError("zero denominator")
        return RatFunc(num, Poly._raw(self.field, den))

    def parse_expr(self) -> list:
        F = self.field
        sign = self.take() if self.peek() in ("+", "-") else "+"
        acc = self.parse_product()
        if sign == "-":
            acc = _neg(F, acc)
        while self.peek() in ("+", "-"):
            op = _sub if self.take() == "-" else _add
            acc = op(F, acc, self.parse_product())
        return acc

    def parse_product(self) -> list:
        acc = self.parse_factor()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.take()
            elif nxt not in ("t", "("):  # these juxtapose: 3t, 2(t+1)
                return acc
            factor = self.parse_factor()
            check_work("polynomial product", len(acc) + len(factor) - 2, 2)
            acc = _mul(self.field, acc, factor)

    def _power(self, base: list) -> list:
        """base, raised to the exponent that follows it if there is one."""
        if self.peek() != "^":
            return base
        self.take()
        tok = self.take_int("exponent")
        F = self.field
        if len(base) < 2:
            # a constant has c^e = c^e' for e, e' >= 1 with e = e' mod q - 1
            m = F.order - 1
            e = _read_int(tok, m) or (m if tok.strip("0") else 0)
            return _pow(F, base, e)
        digits = tok.lstrip("0") or "0"
        # the degree is at least e >= 10^(L-1): bounded before int() reads it
        check_work(f"power to a {len(digits)}-digit exponent", 100,
                   len(digits) - 1)
        e, degree = int(digits), len(base) - 1
        check_work("polynomial power", degree * e, 2)
        if not any(base[:-1]):  # a monomial: (c t^k)^e = c^e t^(ke)
            return [0] * (degree * e) + [F._kpow(base[-1], e)]
        return _pow(F, base, e)

    def parse_factor(self) -> list:
        tok = self.take()
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok == "(":
            inner = self.parse_expr()
            self.expect(")")
            return self._power(inner)
        if tok == "t":
            return self._power([0, 1])
        if tok.isdigit():
            c = _read_int(tok, self.field.p)
            return self._power([c] if c else [])
        raise ParseError(f"unexpected token {tok!r} in polynomial")


def _parse(s: str, field: FiniteField, production, n: int | None = None):
    """production's value on all of s."""
    p = _Parser(s, field, n)
    out = production(p)
    if p.peek() is not None:
        raise ParseError(f"trailing input {' '.join(p.tokens[p.i:-1])!r}")
    return out


def parse_poly(s: str, field: FiniteField) -> Poly:
    return Poly._raw(field, _parse(s, field, _Parser.parse_expr))


def parse_ratfunc(s: str, field: FiniteField) -> RatFunc:
    return _parse(s, field, _Parser.parse_ratfunc)


def parse_place(s: str, field: FiniteField):
    """brauer.parsing.parse_place with its polynomial read by this parser."""
    with mock.patch.object(parsing, "parse_poly", parse_poly):
        return parsing.parse_place(s, field)


def parse_symbol_sum(s: str, field: FiniteField, n: int | None = None
                     ) -> SymbolClass:
    return SymbolClass(*_parse(s, field, _Parser.parse_sum, n))
