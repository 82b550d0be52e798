"""Univariate polynomials over a finite field, with full factorization.

Coefficients are the field's int keys (key = sum c_i p^i, so over F_p the
residue mod p), and every operation is one loop over them through the
field's key ops (FiniteField._kadd, _kmul, ...), which are plain ints mod p
over a prime field.  Factorization is squarefree decomposition followed by
distinct-degree and Cantor-Zassenhaus equal-degree splitting (odd
characteristic).  Splitting uses a polynomial-derived seed so results are
deterministic.
"""

from __future__ import annotations

import random

from .finitefield import FieldElement, FiniteField


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
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _raw(cls, field: FiniteField, keys) -> "Poly":
        """The polynomial with these int keys, trimmed and not checked."""
        keys = list(keys)
        while keys and not keys[-1]:
            keys.pop()
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

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.field is not self.field:
                raise ValueError("polynomials over different fields")
            return other
        if isinstance(other, (int, FieldElement)):
            return Poly(self.field, (other,))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        add = self.field._kadd
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Poly._raw(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        neg = self.field._kneg
        return Poly._raw(self.field, [neg(c) for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        sub = self.field._ksub
        a, b = self.coeffs, o.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = sub(out[i], c)
        return Poly._raw(self.field, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        F = self.field
        if self.is_zero() or o.is_zero():
            return Poly.zero(F)
        add, mul = F._kadd, F._kmul
        a, b = self.coeffs, o.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] = add(out[j], mul(x, y))
        return Poly._raw(F, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        sub, mul = F._ksub, F._kmul
        rem, b = list(self.coeffs), o.coeffs
        dq = len(rem) - len(b)
        if dq < 0:
            return Poly.zero(F), self
        quo = [0] * (dq + 1)
        lead_inv = F._kinv(b[-1])
        for i in range(dq, -1, -1):
            c = mul(rem[i + len(b) - 1], lead_inv)
            if c:
                quo[i] = c
                for j, y in enumerate(b, i):
                    rem[j] = sub(rem[j], mul(c, y))
        return Poly._raw(F, quo), Poly._raw(F, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        result = Poly.one(self.field) % mod
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = Poly(self.field, (other,))
        return (isinstance(other, Poly) and other.field is self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    # -- algebra --------------------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        F = self.field
        inv = F._kinv(self.coeffs[-1])
        return Poly._raw(F, [F._kmul(c, inv) for c in self.coeffs])

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "Poly":
        F = self.field  # the integer i is the key i mod p
        return Poly._raw(F, [F._kmul(i % F.p, c)
                             for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x: FieldElement) -> FieldElement:
        F = self.field
        xk, acc = x.key(), 0
        for c in reversed(self.coeffs):
            acc = F._kadd(F._kmul(acc, xk), c)
        return F.from_key(acc)

    # -- factorization ---------------------------------------------------------

    def is_irreducible(self) -> bool:
        """Squarefree, and the distinct-degree split that factor() runs
        finds no factor of degree below its own."""
        if self.degree < 1:
            return False
        f = self.monic()
        return (f.gcd(f.derivative()).degree == 0
                and f._distinct_degree() == [(f, f.degree)])

    def _pth_root(self) -> "Poly":
        # f with f' = 0 is g(t^p); recover g coefficientwise
        F = self.field
        p = F.p
        root_exp = F.order // p  # c -> c^(q/p) is the inverse of Frobenius
        return Poly._raw(F, [F._kpow(c, root_exp)
                             for c in self.coeffs[::p]])

    def squarefree_decomposition(self):
        """List of (squarefree monic factor, multiplicity)."""
        f = self.monic()
        if f.degree < 1:
            return []
        p = self.field.p
        out = []

        def recurse(f, mult):
            d = f.derivative()
            if d.is_zero():
                recurse(f._pth_root(), mult * p)
                return
            g = f.gcd(d)
            w = f // g
            i = 1
            while w.degree > 0:
                y = w.gcd(g)
                piece = w // y
                if piece.degree > 0:
                    out.append((piece, i * mult))
                w, g = y, g // y
                i += 1
            if g.degree > 0:
                recurse(g._pth_root(), mult * p)

        recurse(f, 1)
        return out

    def _distinct_degree(self):
        """Split a squarefree monic poly into (product, degree) pieces."""
        f = self
        q = self.field.order
        t = Poly.gen(self.field)
        out = []
        h = t % f
        d = 1
        while f.degree >= 2 * d:
            h = h.pow_mod(q, f)
            g = f.gcd(h - t)
            if g.degree > 0:
                out.append((g, d))
                f = f // g
                h = h % f
            d += 1
        if f.degree > 0:
            out.append((f, f.degree))
        return out

    def _equal_degree(self, d: int):
        """Cantor-Zassenhaus split of a product of degree-d irreducibles."""
        if self.field.order % 2 == 0:
            raise NotImplementedError(
                "equal-degree splitting implemented for odd order only")
        if self.degree == d:
            return [self]
        g = self._split(d)
        return g._equal_degree(d) + (self // g)._equal_degree(d)

    def _split(self, d: int) -> "Poly":
        """A proper monic factor of a product of at least two degree-d
        irreducibles over a field of odd order, from random draws seeded by
        the polynomial."""
        F, f = self.field, self
        q = F.order
        # a tuple of ints hashes the same in every process
        rng = random.Random(hash((F.p, F.d, F.modulus, f.coeffs, d)))
        exp = (q ** d - 1) // 2
        while True:
            a = Poly._raw(F, [rng.randrange(q) for _ in range(f.degree)])
            if a.degree < 1:
                continue
            g = f.gcd(a)
            if not 0 < g.degree < f.degree:
                g = f.gcd(a.pow_mod(exp, f) - Poly.one(F))
            if 0 < g.degree < f.degree:
                return g

    def factor(self):
        """Monic irreducible factors with multiplicities, sorted by key.

        The leading coefficient is dropped; the product of the factors is
        self.monic().
        """
        if self.is_zero():
            raise ValueError("cannot factor zero")
        out = []
        for sqf, mult in self.squarefree_decomposition():
            for piece, d in sqf._distinct_degree():
                for irr in piece._equal_degree(d):
                    out.append((irr, mult))
        out.sort(key=lambda fm: fm[0].key())
        return out

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
