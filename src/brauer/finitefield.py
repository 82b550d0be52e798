"""Exact arithmetic in finite fields F_{p^d} and power residue characters.

Elements of F_{p^d} = F_p[x]/(modulus) are coefficient tuples of length d
with entries in [0, p).  Fields are cached by (p, d, modulus); a modulus is
checked, and the default one found, with Poly.is_irreducible, so F_p[x] has
one implementation.  Inverses in F_{p^d} come from the extended Euclid of a
and the modulus on Poly.  Ops on int keys (key = sum c_i p^i), which Poly
coefficients are, are ints mod p over F_p and the tuple ops through the key
otherwise.  A field builds log/exp tables on int keys on first request;
only the conic point count asks, on default-modulus fields.  Each field
caches its n-th roots of unity; the canonical primitive n-th root is the
smallest element of exact order n in the enumeration order (constants
first), which makes every character value reproducible.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass


def prime_powers(n: int):
    """[(p, e)] with n the product of the p^e, by trial division; [] for
    n < 2, so n is prime exactly when this is [(n, 1)]."""
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            out.append((p, e))
        p += 2 if p > 2 else 1
    return out + [(n, 1)] * (n > 1)


def _default_modulus(p: int, d: int):
    """Smallest (in enumeration order) monic irreducible of degree d."""
    if d == 1:
        return (0, 1)
    from .poly import Poly  # poly imports this module
    Fp = FiniteField(p)
    k = 0
    while True:
        coeffs = []
        kk = k
        for _ in range(d):
            coeffs.append(kk % p)
            kk //= p
        f = coeffs + [1]
        if Poly(Fp, f).is_irreducible():
            return tuple(f)
        k += 1


# ---------------------------------------------------------------------------

_FIELD_CACHE: dict = {}


class FiniteField:
    """The field F_{p^d} = F_p[x]/(modulus)."""

    def __new__(cls, p: int, d: int = 1, modulus=None):
        if modulus is not None:
            # p = 0 cannot reduce; it misses the cache and is rejected below
            modulus = tuple(c % p for c in modulus) if p else tuple(modulus)
        key = (p, d, modulus)
        cached = _FIELD_CACHE.get(key)
        if cached is not None:
            return cached
        if prime_powers(p) != [(p, 1)]:
            raise ValueError(f"{p} is not prime")
        if d < 1:
            raise ValueError("extension degree must be >= 1")
        if modulus is None:
            modulus = _default_modulus(p, d)
            cached = _FIELD_CACHE.get((p, d, modulus))
            if cached is not None:
                _FIELD_CACHE[key] = cached
                return cached
        else:
            if len(modulus) != d + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree d")
            from .poly import Poly  # poly imports this module
            if d > 1 and not Poly(FiniteField(p), modulus).is_irreducible():
                raise ValueError("modulus is not irreducible")
        self = super().__new__(cls)
        self.p = p
        self.d = d
        self.modulus = modulus
        self.order = p ** d
        self._zeta_cache = {}
        self._tables = None  # (exp, log), built by _log_tables on first use
        # e -> coefficient tuples of r^0 .. r^(d-1) for the root r of the
        # modulus by which conic embeds this field into FiniteField(p, d*e)
        self._root_powers = {}
        # reduction rows for x^k, k = d .. 2d-2
        red = []
        row = [(-modulus[j]) % p for j in range(d)]
        for _ in range(d - 1):
            red.append(tuple(row))
            carry = row[d - 1]
            row = [0] + row[:-1]
            if carry:
                row = [(row[j] + carry * red[0][j]) % p for j in range(d)]
        self._red = red
        if d == 1:  # key ops on ints mod p, bound here to skip lookups
            self._kadd = lambda a, b: (a + b) % p
            self._ksub = lambda a, b: (a - b) % p
            self._kneg = lambda a: -a % p
            self._kmul = lambda a, b: a * b % p
        # a default-modulus field is also found under its explicit modulus
        _FIELD_CACHE[key] = _FIELD_CACHE[(p, d, modulus)] = self
        return self

    # -- low-level ops on coefficient tuples -------------------------------

    def _key(self, a) -> int:
        k = 0
        for c in reversed(a):
            k = k * self.p + c
        return k

    def _digits(self, k: int) -> tuple:
        """The coefficient tuple with key k."""
        p, out = self.p, []
        for _ in range(self.d):
            k, c = divmod(k, p)
            out.append(c)
        return tuple(out)

    def _add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def _mul(self, a, b):
        p, d = self.p, self.d
        if d == 1:
            return ((a[0] * b[0]) % p,)
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        out = [c % p for c in conv[:d]]
        for k in range(d, 2 * d - 1):
            c = conv[k] % p
            if c:
                row = self._red[k - d]
                for j in range(d):
                    out[j] = (out[j] + c * row[j]) % p
        return tuple(out)

    def _inv(self, a):
        """a^-1; in F_{p^d} by the extended Euclid of a and the modulus in
        F_p[x], on Poly's int keys."""
        if not any(a):
            raise ZeroDivisionError("inverse of zero field element")
        if self.d == 1:
            return (pow(a[0], -1, self.p),)
        from .poly import Poly  # poly imports this module
        Fp = FiniteField(self.p)
        r0, r1 = Poly._raw(Fp, self.modulus), Poly._raw(Fp, a)
        s0, s1 = Poly.zero(Fp), Poly.one(Fp)
        while r1.degree > 0:  # s_i * a = r_i mod the modulus
            q, r = divmod(r0, r1)
            r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
        s = (s1 * Fp._kinv(r1.coeffs[0])).coeffs
        return s + (0,) * (self.d - len(s))

    def _pow(self, a, e):
        if e < 0:  # a^e = a^(e mod (q - 1)) for a unit a
            if not any(a):
                raise ZeroDivisionError("inverse of zero field element")
            e %= self.order - 1
        if self.d == 1:
            return (pow(a[0], e, self.p),)
        result = self.one().coeffs
        base = a
        while e:
            if e & 1:
                result = self._mul(result, base)
            base = self._mul(base, base)
            e >>= 1
        return result

    # -- ops on int keys: the tuple ops above through _digits and _key; a
    # prime field replaces _kadd, _ksub, _kneg and _kmul by ints mod p

    def _kadd(self, a: int, b: int) -> int:
        return self._key(self._add(self._digits(a), self._digits(b)))

    def _ksub(self, a: int, b: int) -> int:
        return self._key(self._sub(self._digits(a), self._digits(b)))

    def _kneg(self, a: int) -> int:
        return self._key(self._neg(self._digits(a)))

    def _kmul(self, a: int, b: int) -> int:
        return self._key(self._mul(self._digits(a), self._digits(b)))

    def _kinv(self, a: int) -> int:
        if self.d == 1:
            if not a:
                raise ZeroDivisionError("inverse of zero field element")
            return pow(a, -1, self.p)
        return self._key(self._inv(self._digits(a)))

    def _kpow(self, a: int, e: int) -> int:
        if self.d == 1 and (a or e >= 0):  # _pow raises on 0^-1
            return pow(a, e, self.p)
        return self._key(self._pow(self._digits(a), e))

    def _log_tables(self):
        """(exp, log) int arrays on keys: exp[i] = key(g^i) for 0 <= i < q - 1
        and log[key(g^i)] = i, with log[0] = -1, where g = zeta(q - 1) is
        the smallest primitive element.  Built once by walking the powers
        of g; a product of units is exp[(log[a] + log[b]) % (q - 1)]."""
        if self._tables is None:
            m = self.order - 1
            g = self.zeta(m).coeffs
            exp, log = array("l", [0]) * m, array("l", [-1]) * self.order
            w = self.one().coeffs
            for i in range(m):
                k = self._key(w)
                if log[k] >= 0 or not k:
                    raise RuntimeError("powers of g repeat or reach zero")
                exp[i], log[k] = k, i
                w = self._mul(w, g)
            if w != self.one().coeffs:
                raise RuntimeError("g^(q-1) != 1")
            self._tables = exp, log
        return self._tables

    # -- element constructors ----------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        if isinstance(coeffs, FieldElement):
            if coeffs.field is not self:
                raise ValueError("element of a different field")
            return coeffs
        if isinstance(coeffs, int):
            c = [coeffs % self.p] + [0] * (self.d - 1)
            return FieldElement(self, tuple(c))
        c = [int(x) % self.p for x in coeffs]
        if len(c) > self.d:
            raise ValueError("too many coefficients")
        c += [0] * (self.d - len(c))
        return FieldElement(self, tuple(c))

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.d)

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.d - 1))

    def from_key(self, k: int) -> "FieldElement":
        return FieldElement(self, self._digits(k))

    def elements(self):
        for k in range(self.order):
            yield self.from_key(k)

    def zeta(self, n: int) -> "FieldElement":
        """Canonical primitive n-th root of unity: the smallest key of exact
        order n.  The keys below p are F_p, so for n | p - 1 it is F_p's.
        Otherwise, where such keys are dense (n^2 >= q), they are tested in
        order; else the least primitive power of one generator c^((q-1)/n)
        of the n-th roots of unity is taken."""
        if n in self._zeta_cache:
            return self._zeta_cache[n]
        q = self.order
        if n < 1 or (q - 1) % n != 0:
            raise ValueError(f"n={n} does not divide |F|-1={q - 1}")
        ells = [ell for ell, _ in prime_powers(n)]

        def primitive(h):  # for h with h^n = 1
            return all(self._kpow(h, n // ell) != 1 for ell in ells)

        if self.d > 1 and (self.p - 1) % n == 0:
            k = FiniteField(self.p).zeta(n).key()
        elif n * n >= q:
            k = next(k for k in range(1, q)
                     if self._kpow(k, n) == 1 and primitive(k))
        else:
            h = next(h for h in (self._kpow(c, (q - 1) // n)
                                 for c in range(1, q)) if primitive(h))
            k = w = h
            for i in range(2, n):
                w = self._kmul(w, h)
                if w < k and math.gcd(i, n) == 1:
                    k = w
        u = self._zeta_cache[n] = self.from_key(k)
        return u

    def __repr__(self):
        if self.d == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.d})"

    def __reduce__(self):
        return (FiniteField, (self.p, self.d, self.modulus))


class FieldElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def key(self) -> int:
        return self.field._key(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.field._add(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.field._sub(self.coeffs, o.coeffs))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.field._mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field,
                            self.field._mul(self.coeffs, self.field._inv(o.coeffs)))

    def __rtruediv__(self, other):
        return self.field.element(other) / self

    def inverse(self):
        return FieldElement(self.field, self.field._inv(self.coeffs))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field._pow(self.coeffs, e))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.element(other)
        return (isinstance(other, FieldElement)
                and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def multiplicative_order(self) -> int:
        if self.is_zero():
            raise ValueError("zero has no multiplicative order")
        n = self.field.order - 1
        for ell, _ in prime_powers(n):
            while n % ell == 0 and self ** (n // ell) == self.field.one():
                n //= ell
        return n

    def __repr__(self):
        if self.field.d == 1:
            return str(self.coeffs[0])
        return f"[{','.join(map(str, self.coeffs))}]"


@dataclass(frozen=True)
class ResidueClass:
    """An element of kappa*/(kappa*)^n, recorded as an exponent of zeta."""

    n: int
    value: int
    zeta: FieldElement

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.n)

    def __add__(self, other):
        if not isinstance(other, ResidueClass):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("residue classes with different moduli")
        return ResidueClass(self.n, (self.value + other.value) % self.n, self.zeta)

    def __neg__(self):
        return ResidueClass(self.n, (-self.value) % self.n, self.zeta)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        return ResidueClass(self.n, (self.value * k) % self.n, self.zeta)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.value == 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.n
        return (isinstance(other, ResidueClass)
                and self.n == other.n and self.value == other.value)

    def __hash__(self):
        return hash((self.n, self.value))

    def __repr__(self):
        return f"{self.value} (mod {self.n})"


def power_residue_character(u: FieldElement, n: int) -> ResidueClass:
    """Discrete logarithm of u^((|F|-1)/n) base zeta = F.zeta(n), as a
    ResidueClass.

    The value m satisfies u^((|F|-1)/n) = zeta^m; it is 0 exactly when u is
    an n-th power.
    """
    F = u.field
    if u.is_zero():
        raise ValueError("character of zero")
    if n < 1 or (F.order - 1) % n != 0:
        raise ValueError(f"n={n} does not divide |F|-1={F.order - 1}")
    zeta = F.zeta(n)
    t = u ** ((F.order - 1) // n)
    return ResidueClass(n, zeta_log(t.coeffs, zeta, n), zeta)


def zeta_log(x: tuple, zeta: FieldElement, n: int) -> int:
    """The m in [0, n) with zeta^m = x, for x a coefficient tuple of zeta's
    field and zeta of order n; ValueError if x is not a power of zeta."""
    F = zeta.field
    w = F.one().coeffs
    for m in range(n):
        if w == x:
            return m
        w = F._mul(w, zeta.coeffs)
    raise ValueError("element is not a power of zeta")


def norm_to_prime_field(u: FieldElement) -> FieldElement:
    """Field norm of u down to the prime field F_p, as an element of F_p."""
    F = u.field
    if u.is_zero():
        raise ValueError("norm of zero")
    e = (F.order - 1) // (F.p - 1)
    nu = u ** e
    if any(nu.coeffs[1:]):
        raise RuntimeError("norm did not land in the prime field")
    return FiniteField(F.p).element(nu.coeffs[0])


def corestrict(u: FieldElement, n: int) -> ResidueClass:
    """Class of the norm of u in F_p*/(F_p*)^n."""
    Fp = FiniteField(u.field.p)
    if (Fp.order - 1) % n != 0:
        raise ValueError(f"n={n} does not divide p-1={Fp.order - 1}")
    return power_residue_character(norm_to_prime_field(u), n)
