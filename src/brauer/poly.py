"""Univariate polynomials over a finite field, with full factorization.

Every algorithm is one private kernel on a key list: the int keys of the
coefficients (key = sum c_i p^i, so over F_p the residue mod p), low
degree first and trimmed, with the empty list for zero.  Kernels take the
field first and never change their inputs.  Over a prime field (F.d == 1)
the coefficient kernels _mul, _divmod and _scale do plain int arithmetic:
a product or a remainder sums unreduced ints and reduces each coefficient
mod p once at the end.  Over F_{p^d} they step through the field's key
ops (FiniteField._kadd, _kmul, ...).  The other kernels (_gcd, _powmod,
_resultant, factor) run through these, the same code for both fields.
Factorization is squarefree decomposition followed by distinct-degree and
Cantor-Zassenhaus equal-degree splitting (odd characteristic), after von
zur Gathen and Gerhard, Modern Computer Algebra, ch. 2 and 14; splitting
uses a polynomial-derived seed so results are deterministic.  Over F_p
with odd p <= ROOT_SCAN_BOUND = 100 a root scan runs first: synthetic
division (_deflate) at every c in F_p divides each root out to its full
multiplicity, a root-free quadratic or cubic left over is irreducible, and
only a root-free remainder of degree >= 4 goes on to the splitting.  The
bound is the measured crossover on random monic inputs: up to it the scan
is faster at degrees 2-4 and about even at degrees 6-10, and above it the
p Horner passes cost more than they save at degree 8.

Poly is the boundary type: each method wraps one kernel, so a chain of
steps (a factorization, a parse, the divide-by-pi loop of ratfunc) builds
a Poly only for what it returns.
"""

from __future__ import annotations

import random

from .finitefield import FieldElement, FiniteField

ROOT_SCAN_BOUND = 100  # the largest p whose factor() scans F_p for roots


# -- kernels on key lists -----------------------------------------------------


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _add(F, a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    add, out = F._kadd, list(a)
    for i, c in enumerate(b):
        out[i] = add(out[i], c)
    return _trim(out)


def _sub(F, a, b) -> list:
    sub, out = F._ksub, list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = sub(out[i], c)
    return _trim(out)


def _neg(F, a) -> list:
    neg = F._kneg
    return [neg(c) for c in a]


def _mul(F, a, b) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    if F.d == 1:  # ints: sum the products, reduce each coefficient once
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        p = F.p
        return [c % p for c in out]
    add, mul = F._kadd, F._kmul
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] = add(out[j], mul(x, y))
    return out


def _pow(F, a, e: int) -> list:
    out = [1]
    while e:
        if e & 1:
            out = _mul(F, out, a)
        e >>= 1
        if e:
            a = _mul(F, a, a)
    return out


def _divmod(F, a, b):
    """(quotient, remainder) of a by b, schoolbook from the top."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    nb, rem = len(b) - 1, list(a)
    dq = len(rem) - nb - 1
    if dq < 0:
        return [], rem
    # a monic b (pi, or f in a reduction mod f) has inv = 1, and the key-op
    # loop then skips the product by inv
    low, inv = b[:-1], 1 if b[-1] == 1 else F._kinv(b[-1])
    quo = [0] * (dq + 1)
    if F.d == 1:  # ints: rem is reduced where it is read, and once at the end
        p = F.p
        for i in range(dq, -1, -1):
            c = quo[i] = rem[i + nb] * inv % p
            if c:
                for j, y in enumerate(low, i):
                    rem[j] -= c * y
        return quo, _trim([c % p for c in rem[:nb]])
    sub, mul = F._ksub, F._kmul
    for i in range(dq, -1, -1):
        c = quo[i] = rem[i + nb] if inv == 1 else mul(rem[i + nb], inv)
        if c:  # rem[i + nb] becomes 0 and is cut below
            for j, y in enumerate(low, i):
                rem[j] = sub(rem[j], mul(c, y))
    del rem[nb:]
    return quo, _trim(rem)


def _scale(F, a, k) -> list:
    """a times the key k, in one pass."""
    if F.d == 1:
        p = F.p
        return [c * k % p for c in a]
    mul = F._kmul
    return [mul(c, k) for c in a]


def _monic(F, a) -> list:
    """a over its leading coefficient, always a new list: factor's pieces
    are lists, never the caller's tuple, and sort against each other."""
    if not a or a[-1] == 1:
        return list(a)
    return _scale(F, a, F._kinv(a[-1]))


def _gcd(F, a, b) -> list:
    """The monic gcd ([] for two zeros), by Euclid's remainders."""
    while b:
        a, b = b, _divmod(F, a, b)[1]
    return _monic(F, a)


def _resultant(F, a, b) -> int:
    """Res(a, b) = lc(a)^deg b * prod of b over the roots of a, a key of F,
    by Euclid's remainders: Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a -
    deg r) Res(b, r) for r = a mod b, Res(a, c) = c^deg a for a constant c,
    and 0 when a and b share a factor or one of them is zero.  For a monic
    a it is the norm of b mod a from F[t]/(a) to F."""
    if not a or not b:
        return 0
    mul, kpow, res = F._kmul, F._kpow, 1
    while len(b) > 1:
        r = _divmod(F, a, b)[1]
        if not r:
            return 0
        res = mul(res, kpow(b[-1], len(a) - len(r)))
        if (len(a) - 1) * (len(b) - 1) % 2:
            res = F._kneg(res)
        a, b = b, r
    return mul(res, kpow(b[0], len(a) - 1))


def _powmod(F, a, e: int, m) -> list:
    out, a = _divmod(F, [1], m)[1], _divmod(F, a, m)[1]
    while e:
        if e & 1:
            out = _divmod(F, _mul(F, out, a), m)[1]
        e >>= 1
        if e:
            a = _divmod(F, _mul(F, a, a), m)[1]
    return out


def _deflate(F, g, c: int):
    """(m, h, r) for a nonzero key list g over a prime field F: g = (t - c)^m
    * h with r = h(c) != 0, by synthetic division at c.  A Horner pass from
    the top gives g(c), and each pass that gives 0 divides by t - c."""
    m, p = 0, F.p
    while True:
        acc = 0
        for x in reversed(g):
            acc = (acc * c + x) % p
        if acc:
            return m, g, acc
        n = len(g) - 1
        h, acc = [0] * n, 0
        for i in range(n, 0, -1):
            acc = h[i - 1] = (acc * c + g[i]) % p
        g, m = h, m + 1


def _deriv(F, a) -> list:
    mul, p = F._kmul, F.p  # the integer i is the key i mod p
    return _trim([mul(i % p, a[i]) for i in range(1, len(a))])


def _pth_root(F, a) -> list:
    # f with f' = 0 is g(t^p); recover g coefficientwise, c -> c^(q/p)
    # being the inverse of Frobenius
    kpow, e = F._kpow, F.order // F.p
    return _trim([kpow(c, e) for c in a[::F.p]])


def _squarefree(F, a) -> list:
    """[(squarefree monic factor, multiplicity)] of a nonzero a."""
    out, p = [], F.p

    def recurse(f, mult):
        d = _deriv(F, f)
        if not d:
            recurse(_pth_root(F, f), mult * p)
            return
        g = _gcd(F, f, d)
        if len(g) == 1:  # f is squarefree: what the loop below returns
            out.append((f, mult))
            return
        w = _divmod(F, f, g)[0]
        i = 1
        while len(w) > 1:
            y = _gcd(F, w, g)
            piece = _divmod(F, w, y)[0]
            if len(piece) > 1:
                out.append((piece, i * mult))
            w, g = y, _divmod(F, g, y)[0]
            i += 1
        if len(g) > 1:
            recurse(_pth_root(F, g), mult * p)

    f = _monic(F, a)
    if len(f) > 1:
        recurse(f, 1)
    return out


def _distinct_degree(F, f) -> list:
    """[(product, degree)] pieces of a squarefree monic f: each piece is the
    product of f's irreducible factors of that degree."""
    q, t = F.order, [0, 1]
    out, h, d = [], _divmod(F, t, f)[1], 1
    while len(f) > 2 * d:
        h = _powmod(F, h, q, f)
        g = _gcd(F, f, _sub(F, h, t))
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(F, f, g)[0]
            h = _divmod(F, h, f)[1]
        d += 1
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(F, f, d: int) -> list:
    """Cantor-Zassenhaus split of a product of degree-d irreducibles."""
    if len(f) - 1 == d:  # one irreducible: nothing to split, whatever q
        return [f]
    if F.order % 2 == 0:
        raise NotImplementedError(
            "equal-degree splitting implemented for odd order only")
    g = _split(F, f, d)
    return _equal_degree(F, g, d) + _equal_degree(F, _divmod(F, f, g)[0], d)


def _split(F, f, d: int) -> list:
    """A proper monic factor of a product f of at least two degree-d
    irreducibles over a field of odd order, from random draws seeded by
    f."""
    q, n = F.order, len(f) - 1
    # a tuple of ints hashes the same in every process
    rng = random.Random(hash((F.p, F.d, F.modulus, tuple(f), d)))
    exp = (q ** d - 1) // 2
    while True:
        a = _trim([rng.randrange(q) for _ in range(n)])
        if len(a) < 2:
            continue
        g = _gcd(F, f, a)
        if not 1 < len(g) <= n:
            g = _gcd(F, f, _sub(F, _powmod(F, a, exp, f), [1]))
        if 1 < len(g) <= n:
            return g


def _factor(F, a) -> list:
    """[(monic irreducible, multiplicity)] of a nonzero a, sorted by
    (degree, keys from the top down)."""
    if len(a) <= 2:  # a constant has no factor, and a linear a is its own
        return [(_monic(F, a), 1)] if len(a) == 2 else []
    out, p = [], F.p
    if F.d == 1 and 2 < p <= ROOT_SCAN_BOUND:
        a = _monic(F, a)
        for c in range(p):
            m, a, _ = _deflate(F, a, c)
            if m:
                out.append(([-c % p, 1], m))
                if len(a) == 1:
                    break
        if 1 < len(a) <= 4:  # root-free, so an irreducible quadratic or cubic
            out, a = out + [(a, 1)], [1]  # and nothing is left to split
    out += [(irr, mult) for sqf, mult in _squarefree(F, a)
            for piece, d in _distinct_degree(F, sqf)
            for irr in _equal_degree(F, piece, d)]
    out.sort(key=lambda fm: (len(fm[0]), fm[0][::-1]))
    return out


# -- the boundary type ----------------------------------------------------------


class Poly:
    """Polynomial in t over a FiniteField; coeffs[i] is the int key of the
    coefficient of t^i.

    The constructor takes FieldElements, coefficient tuples, or ints, which
    are prime-field constants (c mod p) as in FiniteField.element."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs):
        self.field = field
        cs = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.field is not field:
                    raise ValueError("coefficient from a different field")
                cs.append(c.key())
            elif isinstance(c, int):
                cs.append(c % field.p)
            else:
                cs.append(field.element(c).key())
        self.coeffs = tuple(_trim(cs))

    @classmethod
    def _raw(cls, field: FiniteField, keys) -> "Poly":
        """The polynomial with this key list, trimmed and not checked."""
        self = object.__new__(cls)
        self.field, self.coeffs = field, tuple(keys)
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def gen(cls, field):
        """The polynomial t."""
        return cls(field, (0, 1))

    # -- structure -----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> FieldElement:
        if 0 <= i < len(self.coeffs):
            return self.field.from_key(self.coeffs[i])
        return self.field.zero()

    def leading_coefficient(self) -> FieldElement:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.field.from_key(self.coeffs[-1])

    def is_monic(self) -> bool:
        return not self.is_zero() and self.coeffs[-1] == 1

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def key(self):
        """Deterministic sort key: (degree, coefficients from the top down)."""
        return (self.degree, self.coeffs[::-1])

    # -- arithmetic: each a wrap of its kernel --------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.field is not self.field:
                raise ValueError("polynomials over different fields")
            return other.coeffs
        if isinstance(other, (int, FieldElement)):
            return Poly(self.field, (other,)).coeffs
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Poly._raw(self.field, _add(self.field, self.coeffs, o))

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(self.field, _neg(self.field, self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Poly._raw(self.field, _sub(self.field, self.coeffs, o))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Poly._raw(self.field, _mul(self.field, self.coeffs, o))

    __rmul__ = __mul__

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        F = self.field
        return tuple(Poly._raw(F, r) for r in _divmod(F, self.coeffs, o))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        return Poly._raw(self.field, _pow(self.field, self.coeffs, e))

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        return Poly._raw(self.field,
                         _powmod(self.field, self.coeffs, e, mod.coeffs))

    def __eq__(self, other):
        if isinstance(other, FieldElement) and other.field is not self.field:
            return False
        if isinstance(other, (int, FieldElement)):
            other = Poly(self.field, (other,))
        elif not isinstance(other, Poly):
            return NotImplemented  # a RatFunc compares from its side
        return other.field is self.field and other.coeffs == self.coeffs

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    # -- algebra --------------------------------------------------------------

    def monic(self) -> "Poly":
        return Poly._raw(self.field, _monic(self.field, self.coeffs))

    def gcd(self, other: "Poly") -> "Poly":
        return Poly._raw(self.field,
                         _gcd(self.field, self.coeffs, other.coeffs))

    def derivative(self) -> "Poly":
        return Poly._raw(self.field, _deriv(self.field, self.coeffs))

    def evaluate(self, x: FieldElement) -> FieldElement:
        F = self.field
        if x.field is not F:
            raise ValueError("point from a different field")
        xk, acc = x.key(), 0
        for c in reversed(self.coeffs):
            acc = F._kadd(F._kmul(acc, xk), c)
        return F.from_key(acc)

    # -- factorization ---------------------------------------------------------

    def is_irreducible(self) -> bool:
        """Squarefree, and the distinct-degree split that factor() runs
        finds no factor of degree below its own."""
        F, f = self.field, _monic(self.field, self.coeffs)
        return (len(f) > 1 and len(_gcd(F, f, _deriv(F, f))) == 1
                and [d for _, d in _distinct_degree(F, f)] == [len(f) - 1])

    def factor(self):
        """Monic irreducible factors with multiplicities, sorted by key.

        The leading coefficient is dropped; the product of the factors is
        self.monic().  Over F_p with odd p <= ROOT_SCAN_BOUND the roots are
        found by a scan of F_p and only a root-free remainder of degree >= 4
        is split; otherwise the whole input is split.
        """
        if self.is_zero():
            raise ValueError("cannot factor zero")
        return [(Poly._raw(self.field, g), m)
                for g, m in _factor(self.field, self.coeffs)]

    def roots(self):
        """Roots in the coefficient field, without multiplicity."""
        if self.is_zero():
            raise ValueError("every element is a root of zero")
        out = [(-g.coefficient(0)) for g, _ in self.factor() if g.degree == 1]
        out.sort(key=lambda r: r.key())
        return out

    # -- printing --------------------------------------------------------------

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cstr = repr(self.field.from_key(c))
            if i == 0:
                parts.append(cstr)
            else:
                tpow = "t" if i == 1 else f"t^{i}"
                parts.append(tpow if c == 1 else f"{cstr}*{tpow}")
        return "+".join(parts)
