"""Exact arithmetic in finite fields F_{p^d} and power residue characters.

An element of F_{p^d} = F_p[x]/(modulus) is its int key, sum c_i p^i over
its coefficients c_i in [0, p), so over F_p the residue mod p; Poly
coefficients are keys too.  The key ops _kadd, _ksub, _kneg, _kmul, _kinv
and _kpow are the element arithmetic: ints mod p over F_p, one loop over
the base-p digits of the keys otherwise, and inverses in F_{p^d} from the
extended Euclid of a and the modulus on digit lists.  Over F_p, poly's
_mul, _divmod and _monic do their int arithmetic inline, calling only
_kinv; over F_{p^d} they step through the key ops.  Fields are cached by
(p, d, modulus); p is checked by is_prime (deterministic Miller-Rabin,
exact below PRIMALITY_BOUND), and a modulus is checked, and the default
one found, with Poly.is_irreducible, so F_p[x] has one implementation.  A
field builds a discrete-log table on keys on first request; only the conic
point count asks, on default-modulus fields.  Each field caches its n-th roots
of unity; the canonical primitive n-th root is the smallest element of
exact order n in the enumeration order (constants first), which makes every
character value reproducible.
"""

from __future__ import annotations

import math
from array import array

# the first 13 primes; as Miller-Rabin bases they decide primality exactly
# below PRIMALITY_BOUND (Sorenson & Webster, Math. Comp. 86 (2017), 985-1003)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin to the bases
    _MR_BASES: a few modular powers, whatever the size of n.  ValueError
    for n >= PRIMALITY_BOUND, where these bases no longer decide."""
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"primality is decided only below {PRIMALITY_BOUND}"
                         f", got {n}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:  # n - 1 = d 2^s, d odd
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # a witnesses that n is composite
    return True


def prime_powers(n: int):
    """[(p, e)] with n the product of the p^e, by trial division that stops
    once the cofactor is prime; [] for n < 2, so n is prime exactly when
    this is [(n, 1)].  The cofactor is tested by is_prime, below
    PRIMALITY_BOUND, at the start and after each prime divided out.  A
    cofactor still composite after the TABLE_GUARD trial divisors 2, 3,
    5, ..., 2 TABLE_GUARD - 1 is refused: check_work gets the divisors up
    to its square root, which are more, and raises TableSizeError."""
    from .cohomology import TABLE_GUARD, check_work  # it imports this module
    out, p = [], 2
    prime = n < PRIMALITY_BOUND and is_prime(n)
    while not prime and p * p <= n:
        if p == 2 * TABLE_GUARD + 1:
            check_work("trial division", (math.isqrt(n) + 1) // 2)
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            out.append((p, e))
            prime = n < PRIMALITY_BOUND and is_prime(n)
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
        if not is_prime(p):
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
        self = cls._proved(p, d, modulus)
        # a default-modulus field is also found under its explicit modulus
        _FIELD_CACHE[key] = _FIELD_CACHE[(p, d, modulus)] = self
        return self

    @classmethod
    def _proved(cls, p: int, d: int, modulus: tuple) -> "FiniteField":
        """F_p[x]/(modulus) for a monic modulus of degree d, reduced mod p,
        that is already proved irreducible (a factor from Poly.factor): the
        cached field, else a new one built without a second test and left
        out of the cache, which only __new__ fills."""
        self = _FIELD_CACHE.get((p, d, modulus))
        if self is not None:
            return self
        self = super().__new__(cls)
        self.p = p
        self.d = d
        self.modulus = modulus
        self.order = p ** d
        self._zeta_cache = {}
        self._tables = None  # the log table, built by _log_tables on first use
        # e -> rows of the keys of c * r^i (c < p, i < d) in
        # FiniteField(p, d*e), r the root of the modulus at which conic
        # embeds this field's elements there
        self._roots = {}
        # x^d = sum of r * x^j over the (j, r) here, the reduction in _kmul
        self._tail = tuple((j, -c % p) for j, c in enumerate(modulus[:d]) if c)
        if d == 1:  # key ops on ints mod p, bound here to skip lookups
            self._kadd = lambda a, b: (a + b) % p
            self._ksub = lambda a, b: (a - b) % p
            self._kneg = lambda a: -a % p
            self._kmul = lambda a, b: a * b % p
        return self

    # -- keys and coefficient tuples ---------------------------------------

    def _key(self, a) -> int:
        """The key of the coefficient sequence a (low degree first)."""
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

    # -- arithmetic on int keys, each one loop over the base-p digits; a
    # prime field replaces _kadd, _ksub, _kneg and _kmul by ints mod p

    def _kadd(self, a: int, b: int) -> int:
        p = s = self.p
        k = a + b
        while a and b:  # a + b, less p at each digit whose sum is >= p
            if a % p + b % p >= p:
                k -= s
            a, b, s = a // p, b // p, s * p
        return k

    def _ksub(self, a: int, b: int) -> int:
        p = s = self.p
        k = a - b
        while b:  # a - b, plus p at each digit where a's is below b's
            if a % p < b % p:
                k += s
            a, b, s = a // p, b // p, s * p
        return k

    def _kneg(self, a: int) -> int:
        return self._ksub(0, a)

    def _kmul(self, a: int, b: int) -> int:
        """The schoolbook product of the digits, reduced from the top by
        the modulus (_tail)."""
        p, d = self.p, self.d
        ys = []
        while b:
            b, y = divmod(b, p)
            ys.append(y)
        conv, i = [0] * (2 * d - 1), 0
        while a:
            a, x = divmod(a, p)
            if x:
                for j, y in enumerate(ys, i):
                    conv[j] += x * y
            i += 1
        for i in range(2 * d - 2, d - 1, -1):
            c = conv[i] % p
            if c:
                for j, r in self._tail:
                    conv[i - d + j] += c * r
        k = 0
        for c in reversed(conv[:d]):
            k = k * p + c % p
        return k

    def _kinv(self, a: int) -> int:
        """a^-1; in F_{p^d} by the extended Euclid of a and the modulus in
        F_p[x], on int lists of base-p digits (low degree first)."""
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        p = self.p
        if self.d == 1:
            return pow(a, -1, p)
        r0, r1 = list(self.modulus), list(self._digits(a))
        while not r1[-1]:
            r1.pop()
        s0, s1 = [0], [1]
        while len(r1) > 1:  # s_i * a = r_i mod the modulus
            lead = pow(r1[-1], -1, p)
            while len(r0) >= len(r1):  # r0 -= c x^k r1, s0 -= c x^k s1
                c, k = r0[-1] * lead % p, len(r0) - len(r1)
                for j, y in enumerate(r1, k):
                    r0[j] = (r0[j] - c * y) % p
                s0 += [0] * (k + len(s1) - len(s0))
                for j, y in enumerate(s1, k):
                    s0[j] = (s0[j] - c * y) % p
                while r0 and not r0[-1]:
                    r0.pop()
            r0, r1, s0, s1 = r1, r0, s1, s0
        c = pow(r1[0], -1, p)
        return self._key([x * c % p for x in s1])

    def _kpow(self, a: int, e: int) -> int:
        if e < 0:  # a^e = a^(e mod (q - 1)) for a unit a
            if not a:
                raise ZeroDivisionError("inverse of zero field element")
            e %= self.order - 1
        if self.d == 1:
            return pow(a, e, self.p)
        r = 1
        while e:
            if e & 1:
                r = self._kmul(r, a)
            a = self._kmul(a, a)
            e >>= 1
        return r

    def _log_tables(self):
        """log, an int array on keys: log[key(g^i)] = i for 0 <= i < q - 1,
        with log[0] = -1, where g = zeta(q - 1) is the smallest primitive
        element; for odd q a unit is a square exactly when its log is even.
        Built once by walking the powers of g, each checked to be new.
        Multiplication by g is F_p-linear, so a step splits w = lo + s*hi,
        s = p^ceil(d/2), and adds lo*g to (s*hi)*g, each read from a table
        of at most s products."""
        if self._tables is None:
            m = self.order - 1
            g = self.zeta(m).key()
            s = self.p ** ((self.d + 1) // 2)
            lo = [self._kmul(a, g) for a in range(s)]
            hi = [self._kmul(b * s, g) for b in range(self.order // s)]
            log = array("l", [-1]) * self.order
            w = 1
            for i in range(m):
                if log[w] >= 0 or not w:
                    raise RuntimeError("powers of g repeat or reach zero")
                log[w] = i
                b, a = divmod(w, s)
                w = self._kadd(lo[a], hi[b])
            if w != 1:
                raise RuntimeError("g^(q-1) != 1")
            self._tables = log
        return self._tables

    # -- element constructors ----------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        if isinstance(coeffs, FieldElement):
            if coeffs.field is not self:
                raise ValueError("element of a different field")
            return coeffs
        if isinstance(coeffs, int):
            return FieldElement(self, coeffs % self.p)
        c = [int(x) % self.p for x in coeffs]
        if len(c) > self.d:
            raise ValueError("too many coefficients")
        return FieldElement(self, self._key(c))

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def from_key(self, k: int) -> "FieldElement":
        return FieldElement(self, k % self.order)

    def elements(self):
        for k in range(self.order):
            yield self.from_key(k)

    def zeta(self, n: int) -> "FieldElement":
        """Canonical primitive n-th root of unity: the smallest key of exact
        order n.  The keys below p are F_p, so for n | p - 1 it is F_p's.
        Otherwise, where such keys are dense (n^2 >= q), they are tested in
        order; else the least primitive power of one generator c^((q-1)/n)
        of the n-th roots of unity is taken.  Each way walks up to about n
        keys or powers, as zeta_log does for each character read against
        the root, so n > TABLE_GUARD raises TableSizeError first; the
        check is made once per n, as the root is cached."""
        if n in self._zeta_cache:
            return self._zeta_cache[n]
        q = self.order
        if n < 1 or (q - 1) % n != 0:
            raise ValueError(f"n={n} does not divide |F|-1={q - 1}")
        from .cohomology import check_work  # it imports this module
        check_work("n-th roots of unity", n)
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
    """An element of a FiniteField, held as its int key; every operation is
    one of the field's key ops."""

    __slots__ = ("field", "_k")

    def __init__(self, field: FiniteField, key: int):
        self.field = field
        self._k = key

    def key(self) -> int:
        return self._k

    @property
    def coeffs(self) -> tuple:
        """The coefficient tuple (c_0, ..., c_{d-1}) of the key."""
        return self.field._digits(self._k)

    def is_zero(self) -> bool:
        return not self._k

    def _coerce(self, other):
        """The key of other, an element of this field or an int (c mod p)."""
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("elements of different fields")
            return other._k
        if isinstance(other, int):
            return other % self.field.p
        return NotImplemented

    def __add__(self, other):
        k = self._coerce(other)
        if k is NotImplemented:
            return k
        return FieldElement(self.field, self.field._kadd(self._k, k))

    __radd__ = __add__

    def __sub__(self, other):
        k = self._coerce(other)
        if k is NotImplemented:
            return k
        return FieldElement(self.field, self.field._ksub(self._k, k))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return FieldElement(self.field, self.field._kneg(self._k))

    def __mul__(self, other):
        k = self._coerce(other)
        if k is NotImplemented:
            return k
        return FieldElement(self.field, self.field._kmul(self._k, k))

    __rmul__ = __mul__

    def __truediv__(self, other):
        k = self._coerce(other)
        if k is NotImplemented:
            return k
        F = self.field
        return FieldElement(F, F._kmul(self._k, F._kinv(k)))

    def __rtruediv__(self, other):
        return self.field.element(other) / self

    def inverse(self):
        return FieldElement(self.field, self.field._kinv(self._k))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field._kpow(self._k, e))

    def __eq__(self, other):
        if isinstance(other, int):
            return self._k == other % self.field.p
        if isinstance(other, FieldElement):
            return self.field is other.field and self._k == other._k
        return NotImplemented  # a Poly or RatFunc compares from its side

    def __hash__(self):
        # as the equal constant Poly, whose coeffs are () for zero
        return hash((id(self.field), (self._k,) if self._k else ()))

    def __repr__(self):
        if self.field.d == 1:
            return str(self._k)
        return f"[{','.join(map(str, self.coeffs))}]"


class ResidueClass:
    """An element of kappa*/(kappa*)^n, recorded as an exponent of zeta."""

    __slots__ = ("n", "value", "zeta")

    def __init__(self, n: int, value: int, zeta: FieldElement):
        self.n = n
        self.value = value % n
        self.zeta = zeta

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
    t = F._kpow(u.key(), (F.order - 1) // n)
    return ResidueClass(n, zeta_log(t, zeta, n), zeta)


def zeta_log(x: int, zeta: FieldElement, n: int) -> int:
    """The m in [0, n) with zeta^m = x, for x a key of zeta's field and zeta
    of order n; ValueError if x is not a power of zeta."""
    F, z, w = zeta.field, zeta.key(), 1
    for m in range(n):
        if w == x:
            return m
        w = F._kmul(w, z)
    raise ValueError("element is not a power of zeta")


def norm_to_prime_field(u: FieldElement) -> FieldElement:
    """Field norm of u down to the prime field F_p, as an element of F_p."""
    F = u.field
    if u.is_zero():
        raise ValueError("norm of zero")
    nu = F._kpow(u.key(), (F.order - 1) // (F.p - 1))
    if nu >= F.p:  # the keys below p are F_p
        raise RuntimeError("norm did not land in the prime field")
    return FiniteField(F.p).from_key(nu)


def corestrict(u: FieldElement, n: int) -> ResidueClass:
    """Class of the norm of u in F_p*/(F_p*)^n."""
    Fp = FiniteField(u.field.p)
    if (Fp.order - 1) % n != 0:
        raise ValueError(f"n={n} does not divide p-1={Fp.order - 1}")
    return power_residue_character(norm_to_prime_field(u), n)
