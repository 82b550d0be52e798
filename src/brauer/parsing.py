"""Text grammar for polynomials, rational functions, symbols and places:

    sum := [sign] term {sign term}      sign := "+" | "-"
    term := [INT "*"] "(" ratfunc "," ratfunc ")" "_" INT
    ratfunc := expr ["/" expr]          expr := [sign] product {sign product}
    product := factor {["*"] factor}    (no "*" needed before t or "(")
    factor := ("t" | INT | "(" expr ")") ["^" INT]

The parser reads each production in one loop over the token list, by
index; an expr calls itself only for a parenthesised factor.  It sums its
products into one key list, over F_p as unreduced ints reduced once; a
product is held as a constant key times a power of t times the product of
its parenthesised factors, so a monomial such as 3*t^2 builds no list.

Whitespace may sit between any two tokens, and the first fault from the
left is reported: ParseError, or TableSizeError before a power or product
of degree d with d^2 > TABLE_GUARD is built (reading a degree-d argument
at a place divides by pi up to d times, so the work is O(d^2)).  Digit
tokens of any length are read without Python's int-string limit: a
coefficient mod p, an exponent of a constant mod q - 1.  An exponent e of
L digits on t is first bounded as e^2 >= 100^(L-1), so one too long for
int() is refused before it is read.
"""

from __future__ import annotations

import re

from .cohomology import check_work
from .finitefield import FiniteField
from .poly import Poly, _mul, _pow, _trim
from .ratfunc import Place, RatFunc
from .residues import SymbolClass


class ParseError(ValueError):
    pass


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


_ONE = r"\s*(\d+|t|\^|\*|\+|-|/|\(|\)|,|_)"
_TOKEN, _TOKENS = re.compile(_ONE), re.compile(f"(?:{_ONE})*")


def _tokenize(s: str):
    """The tokens of s, then None, and the text from the first character
    that starts no token (None when only whitespace is left).  One findall
    reads s, skipping any such character; the tokens hold no whitespace, so
    they cover s when their length is that of its non-whitespace, and only
    when they do not is s scanned again for the end of the tokens."""
    tokens = _TOKEN.findall(s)
    if len("".join(tokens)) == len("".join(s.split())):
        tokens.append(None)
        return tokens, None
    end = _TOKENS.match(s).end()
    return _TOKEN.findall(s, 0, end) + [None], s[end:]


_SIGNS = ("+", "-")


def _expect(tokens, i: int, want: str):
    if tokens[i] != want:
        raise ParseError(f"expected {want!r}")


def _int_token(tok, what: str) -> str:
    if tok is None or not tok.isdigit():
        raise ParseError(f"{what} must be an integer")
    return tok


def _exponent(F: FiniteField, tok, degree: int) -> int:
    """The exponent token tok on a base of this degree (below 1 for a
    constant), as an int: mod q - 1 on a constant, since c^e = c^e' for
    e, e' >= 1 with e = e' mod q - 1; on the rest, checked against the
    power's degree * e before the power is built."""
    tok = _int_token(tok, "exponent")
    if degree < 1:
        m = F.order - 1
        return _read_int(tok, m) or (m if tok.strip("0") else 0)
    digits = tok.lstrip("0") or "0"
    # the degree is at least e >= 10^(L-1): bounded before int() reads it
    check_work(f"power to a {len(digits)}-digit exponent", 100,
               len(digits) - 1)
    e = int(digits)
    check_work("polynomial power", degree * e, 2)
    return e


def _power(F: FiniteField, base: list, tok) -> list:
    """base to the exponent token tok."""
    e = _exponent(F, tok, len(base) - 1)
    if len(base) > 1 and not any(base[:-1]):  # (c t^k)^e = c^e t^(ke)
        return [0] * ((len(base) - 1) * e) + [F._kpow(base[-1], e)]
    return _pow(F, base, e)


class _Parser:
    """One string's tokens, read by index in a loop per production; the
    polynomial ones return key lists (poly's kernels).  The token list ends
    in None, or, when text that starts no token follows the tokens, it just
    ends: reading there raises IndexError, which _parse reports as that
    text, so the first read of the end is the fault."""

    def __init__(self, s: str, field: FiniteField, n: int | None = None):
        self.tokens, self.rest = _tokenize(s)
        if self.rest is not None:
            del self.tokens[-1]
        self.i = 0
        self.field = field
        self.n = n  # a symbol sum's modulus

    def parse_sum(self):
        """(n, terms); empty input is the zero class of a given n."""
        toks, i = self.tokens, self.i
        if toks[i] is None and self.n is not None:
            return self.n, []
        terms, sign = [], "+"
        if toks[i] in _SIGNS:
            sign, i = toks[i], i + 1
        while toks[i] not in ("+", "-", None):
            self.i = i
            a, b, mult = self.parse_term()
            terms.append((a, b, -mult if sign == "-" else mult))
            i = self.i
            if toks[i] not in _SIGNS:
                return self.n, terms
            sign, i = toks[i], i + 1
        if toks[0] is None:
            raise ParseError("cannot infer n from an empty symbol sum")
        raise ParseError("dangling or doubled sign in symbol sum")

    def parse_term(self):
        toks, i = self.tokens, self.i
        mult = 1
        if toks[i].isdigit():
            mult = _read_int(toks[i])
            _expect(toks, i + 1, "*")
            i += 2
        _expect(toks, i, "(")
        self.i = i + 1
        a = self.parse_ratfunc()
        _expect(toks, self.i, ",")
        self.i += 1
        b = self.parse_ratfunc()
        i = self.i
        _expect(toks, i, ")")
        _expect(toks, i + 1, "_")
        n = _read_int(_int_token(toks[i + 2], "a symbol modulus"))
        self.i = i + 3
        if self.n is None:
            self.n = n
        elif n != self.n:
            raise ParseError(f"symbol modulus {n} does not match n={self.n}")
        if a.is_zero() or b.is_zero():
            raise ParseError("symbol arguments must be nonzero")
        return a, b, mult

    def parse_ratfunc(self) -> RatFunc:
        num = Poly._raw(self.field, self.parse_expr())
        if self.tokens[self.i] != "/":
            return RatFunc(num)
        self.i += 1
        den = self.parse_expr()
        if not den:
            raise ParseError("zero denominator")
        return RatFunc(num, Poly._raw(self.field, den))

    def parse_expr(self) -> list:
        """The sum of the products, added into one key list as each ends:
        over F_p unreduced ints, reduced once at the end.  A product is
        c t^k times the product of its parenthesised factors (None when it
        has none), and size is its length as a key list (0 for zero), which
        each further factor's size check reads."""
        F, toks, i = self.field, self.tokens, self.i
        p, prime = F.p, F.d == 1
        out = []
        negative = toks[i] == "-"
        if negative or toks[i] == "+":
            i += 1
        while True:
            c, k, inner, size, first = 1, 0, None, 1, True
            while True:
                tok = toks[i]
                i += 1
                if tok == "t":
                    e = 1
                    if toks[i] == "^":
                        e = _exponent(F, toks[i + 1], 1)
                        i += 2
                    if not first:  # the factor t^e has e + 1 keys
                        check_work("polynomial product", size + e - 1, 2)
                    k += e
                    if size:
                        size += e
                elif tok == "(":
                    self.i = i
                    f = self.parse_expr()
                    i = self.i
                    _expect(toks, i, ")")
                    i += 1
                    if toks[i] == "^":
                        f = _power(F, f, toks[i + 1])
                        i += 2
                    if not first:
                        check_work("polynomial product", size + len(f) - 2, 2)
                    if not f:
                        size = 0
                    elif size:
                        size += len(f) - 1
                        inner = f if inner is None else _mul(F, inner, f)
                elif tok is not None and tok.isdigit():
                    v = int(tok) % p if len(tok) < 1000 else _read_int(tok, p)
                    if toks[i] == "^":
                        v = F._kpow(v, _exponent(F, toks[i + 1], 0))
                        i += 2
                    if not first:  # the factor v has one key, or none
                        check_work("polynomial product",
                                   size - (1 if v else 2), 2)
                    if not v:
                        size = 0
                    elif size:
                        c = c * v % p if prime else F._kmul(c, v)
                elif tok is None:
                    raise ParseError("unexpected end of input")
                else:
                    raise ParseError(f"unexpected token {tok!r} in polynomial")
                first = False
                tok = toks[i]
                if tok == "*":
                    i += 1
                elif tok != "t" and tok != "(":  # these juxtapose: 3t, 2(t+1)
                    break
            if size:
                if negative:
                    c = -c if prime else F._kneg(c)
                top = k + (1 if inner is None else len(inner))
                if len(out) < top:
                    out += [0] * (top - len(out))
                if inner is None:
                    out[k] = out[k] + c if prime else F._kadd(out[k], c)
                elif prime:
                    for j, y in enumerate(inner, k):
                        out[j] += c * y
                else:
                    add, mul = F._kadd, F._kmul
                    for j, y in enumerate(inner, k):
                        out[j] = add(out[j], mul(c, y))
            if tok not in _SIGNS:
                self.i = i
                return _trim([x % p for x in out] if prime else out)
            negative = tok == "-"
            i += 1


def _parse(s: str, field: FiniteField, production, n: int | None = None):
    """production's value on all of s."""
    p = _Parser(s, field, n)
    try:
        out = production(p)
        end = p.tokens[p.i]
    except IndexError:  # the parse read the end, and text follows it
        if p.rest is None:
            raise
        raise ParseError(f"unexpected character at {p.rest!r}") from None
    if end is not None:
        trailing = " ".join(filter(None, p.tokens[p.i:]))
        raise ParseError(f"trailing input {trailing!r}")
    return out


def parse_poly(s: str, field: FiniteField) -> Poly:
    return Poly._raw(field, _parse(s, field, _Parser.parse_expr))


def parse_ratfunc(s: str, field: FiniteField) -> RatFunc:
    return _parse(s, field, _Parser.parse_ratfunc)


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


def parse_symbol_sum(s: str, field: FiniteField, n: int | None = None
                     ) -> SymbolClass:
    """A `+`/`-` separated list of `(a,b)_n` terms; empty input is the zero
    class.  When n is omitted it is inferred from the first term."""
    return SymbolClass(*_parse(s, field, _Parser.parse_sum, n))
