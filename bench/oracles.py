"""Independent oracles for the benchmark, on plain ints only.

Nothing here imports `brauer`: polynomials over F_q (q prime) are lists of
ints, lowest coefficient first, and every expected value is derived from
a closed form or from the tame-symbol formula written out directly.
"""

from __future__ import annotations

from math import comb, gcd

# -- F_q[t] on int lists --------------------------------------------------


def trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def pmul(f, g, q):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % q
    return trim(out)


def pdivmod(f, g, q):
    f = list(f)
    inv = pow(g[-1], q - 2, q)
    quo = [0] * max(len(f) - len(g) + 1, 0)
    for i in range(len(f) - len(g), -1, -1):
        c = (f[i + len(g) - 1] * inv) % q
        if c:
            quo[i] = c
            for j, b in enumerate(g):
                f[i + j] = (f[i + j] - c * b) % q
    return trim(quo), trim(f[:len(g) - 1])


def pgcd(f, g, q):
    f, g = trim(list(f)), trim(list(g))
    while g:
        f, g = g, pdivmod(f, g, q)[1]
    return f


def ppowmod(f, e, m, q):
    out, base = [1], pdivmod(f, m, q)[1]
    while e:
        if e & 1:
            out = pdivmod(pmul(out, base, q), m, q)[1]
        base = pdivmod(pmul(base, base, q), m, q)[1]
        e >>= 1
    return out


def prime_divisors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def is_irreducible(f, q):
    """Rabin's test for a monic f of degree >= 1."""
    d = len(f) - 1
    if d == 1:
        return True
    x = [0, 1]

    def x_pow_minus_x(k):
        h = ppowmod(x, q ** k, f, q)
        h = h + [0] * max(0, 2 - len(h))
        h[1] = (h[1] - 1) % q
        return trim(h)

    if x_pow_minus_x(d):
        return False
    return all(len(pgcd(f, x_pow_minus_x(d // ell), q)) == 1
               for ell in prime_divisors(d))


def random_irreducible(rng, q, d):
    while True:
        f = [rng.randrange(q) for _ in range(d)] + [1]
        if is_irreducible(f, q):
            return f


def poly_str(f):
    """README grammar, highest term first: `3*t^2+t+4`."""
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if not c:
            continue
        mono = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
        if not mono:
            parts.append(str(c))
        else:
            parts.append(mono if c == 1 else f"{c}*{mono}")
    return "+".join(parts)


def ratfunc_str(num, den):
    return poly_str(num) if den == [1] else f"{poly_str(num)}/{poly_str(den)}"


# -- the tame symbol at degree-1 places and infinity -------------------------

INF = "inf"


def place_str(place, q):
    """How the library prints the place t - place, or inf."""
    return "inf" if place == INF else poly_str([(-place) % q, 1])


def zeta(q, n):
    """Smallest element of exact order n in F_q."""
    for z in range(2, q):
        if pow(z, n, q) == 1 and all(pow(z, n // ell, q) != 1
                                     for ell in prime_divisors(n)):
            return z
    if n == 1:
        return 1
    raise ValueError(f"no element of order {n} in F_{q}")


def character(u, q, n):
    """m with u^((q-1)/n) = zeta^m."""
    t, z = pow(u, (q - 1) // n, q), zeta(q, n)
    w = 1
    for m in range(n):
        if w == t:
            return m
        w = w * z % q
    raise ValueError("character value not found")


def _local(f, c, q):
    """(v, unit value) of a nonzero polynomial at t = c."""
    v = 0
    while True:
        quo, rem = pdivmod(f, [(-c) % q, 1], q)
        if rem:
            val = 0
            for a in reversed(f):
                val = (val * c + a) % q
            return v, val
        v, f = v + 1, quo


def local_data(rf, place, q):
    """(valuation, reduced unit part) of num/den at t = place or at inf."""
    num, den = rf
    if place == INF:
        return (len(den) - len(num),
                num[-1] * pow(den[-1], q - 2, q) % q)
    vn, un = _local(num, place, q)
    vd, ud = _local(den, place, q)
    return vn - vd, un * pow(ud, q - 2, q) % q


def tame_residue(terms, place, q, n):
    """Residue in Z/n of sum m*(a, b)_n at a degree-1 place or inf.

    Each term is (a, b, m) with a, b given as (num, den) int lists.
    """
    total = 0
    for a, b, m in terms:
        va, ua = local_data(a, place, q)
        vb, ub = local_data(b, place, q)
        unit = pow(ua, vb % (q - 1), q) * pow(ub, (-va) % (q - 1), q) % q
        if (va * vb) % 2:
            unit = (-unit) % q
        total += m * character(unit, q, n)
    return total % n


def degree_one_places(q):
    return list(range(q)) + [INF]


# -- closed forms for cohomology of finite abelian groups -------------------


def cohomology_invariants(factors, m, k):
    """Invariant factors (> 1, ascending) of H^k(G, Z/m), trivial action.

    Cyclic G: Z/gcd(n, m) for k >= 1 and Z/m for k = 0.  Products need a
    squarefree m: per prime p | m the F_p-Kuenneth count is
    C(k + s - 1, s - 1) with s the number of factors divisible by p, and
    the primes are combined by CRT.
    """
    if len(factors) == 1:
        g = m if k == 0 else gcd(factors[0], m)
        return [g] if g > 1 else []
    primes = prime_divisors(m)
    if any(m % (p * p) == 0 for p in primes):
        raise ValueError("closed form for products needs a squarefree m")
    dims = {}
    for p in primes:
        s = sum(1 for f in factors if f % p == 0)
        dims[p] = (1 if k == 0 else 0) if s == 0 else comb(k + s - 1, s - 1)
    out = []
    for i in range(1, max(dims.values(), default=0) + 1):
        e = 1
        for p, dim in dims.items():
            if dim >= i:
                e *= p
        out.append(e)
    return sorted(out)


def epsilon_table(n):
    """How the CLI prints the epsilon cocycle: pi^-1 exactly on a carry."""
    return [["pi^(-1)*zeta^0" if b + b2 >= n else "pi^(0)*zeta^0"
             for b2 in range(n)] for b in range(n)]

