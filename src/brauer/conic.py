"""Conic bundles a*x^2 + b*y^2 = z^2 over P^1 and their degenerate fibers.

At a place where the quaternion symbol (a,b)_2 ramifies, the fiber of the
minimal local model degenerates to a rank-2 form whose two lines are
swapped by a quadratic twist; the class of that component torsor equals
the tame residue.  The reduced fiber is the one local model: a pair of
kappa(P) keys (ratfunc's local read: at a degree-1 place or infinity two
values in F_q, no polynomial division).  The torsor is read from its unit
alone, by the character of a resultant norm, so it shares no norm with
the residue it is compared with.  A projective point-count over the
residue field acts as a further oracle: a split degenerate conic over F_Q
has 2Q+1 points, a non-split one exactly 1.  The count reads the reduced
fiber on keys, building no FieldElement, in the default-modulus field
F_Q = FiniteField(p, d*e), into which kappa(P) embeds at a root of pi;
multiplying by c there rotates discrete logs by log c, so a degenerate
fiber is counted by popcounts of bit planes of log-indexed square-root
counts, packed into ints, against their rotation, built once per (p, d).
"""

from __future__ import annotations

from array import array
from functools import reduce
from operator import getitem

from .cohomology import check_work
from .finitefield import FiniteField, ResidueClass, power_residue_character
from .poly import Poly, _resultant, _trim
from .ratfunc import Place, RatFunc, _unit_key, valuation
from .residues import SymbolClass, _candidate_places, ramification_divisor


class ConicModelError(ValueError):
    """The local model cannot be reduced to a standard degeneration."""


class ConicBundle:
    __slots__ = ("a", "b")

    def __init__(self, a: RatFunc, b: RatFunc):
        if a.field is not b.field:
            raise ValueError("coefficients over different fields")
        if a.field.p == 2:
            raise ConicModelError("odd characteristic required")
        if a.is_zero() or b.is_zero():
            raise ConicModelError("conic coefficients must be nonzero")
        self.a = a
        self.b = b

    @property
    def field(self) -> FiniteField:
        return self.a.field

    def symbol(self) -> SymbolClass:
        return SymbolClass.symbol(self.a, self.b, 2)

    def __eq__(self, other):
        if not isinstance(other, ConicBundle):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"({self.a})*x^2 + ({self.b})*y^2 = z^2"


def _reduced_fiber(C: ConicBundle, P: Place):
    """(abar, bbar), the kappa(P) keys of the minimal model's fiber at P,
    from the local units.  Even parts of the valuations are square factors
    of the uniformizer and leave the class alone, so a unit reduces to its
    key and an odd valuation to 0; if both are odd, the symbol identity
    (a, b) = (a, -a*b) trades b for a unit, giving (0, -abar*bbar)."""
    kappa = P.residue_field()
    va, ua = _unit_key(C.a, P)
    vb, ub = _unit_key(C.b, P)
    if va % 2 and vb % 2:
        return 0, kappa._kneg(kappa._kmul(ua, ub))
    return 0 if va % 2 else ua, 0 if vb % 2 else ub


def component_torsor(C: ConicBundle, P: Place) -> ResidueClass:
    """Square class of the unit coefficient of the degenerate fiber at P.

    The fiber u*X^2 = Z^2 of the minimal model factors into two lines over
    kappa(P)(sqrt(u)); the torsor of its components is the class of u, the
    nonzero key of _reduced_fiber.  u is a square in kappa(P) exactly when
    its norm to F_q is a square: where kappa(P) is F_q (degree 1, infinity)
    that norm is u, elsewhere Res(pi, u) by one Euclid, on u's digits.
    Errors if the fiber at P is a smooth conic.
    """
    abar, bbar = _reduced_fiber(C, P)
    if abar and bbar:
        raise ConicModelError("fiber is smooth")
    kappa, F, u = P.residue_field(), C.field, bbar or abar
    if kappa is not F:
        u = _resultant(F, P.poly.coeffs, _trim(list(kappa._digits(u))))
    chi = power_residue_character(F.from_key(u), 2)
    return ResidueClass(2, chi.value, kappa.zeta(2))


def degenerate_places(C: ConicBundle):
    """Places with a degenerate fiber (discriminant places and the split
    degenerations with trivial torsor): those where v_P(a) or v_P(b) is
    odd, the places where _reduced_fiber has a zero coefficient."""
    return [P for P in _candidate_places(C.symbol())
            if valuation(C.a, P) % 2 or valuation(C.b, P) % 2]


def check_artin(C: ConicBundle):
    """Compare the component torsor with the tame residue at every ramified
    place; returns (place, geometric, residue, agree) rows."""
    rows = []
    for P, res in ramification_divisor(C.symbol()).items():
        geo = component_torsor(C, P)
        rows.append((P, geo, res, geo == res))
    return rows


# ---------------------------------------------------------------------------
# point counting oracle

_SQRT_COUNTS: dict = {}


def _sqrt_count_table(p: int, d: int):
    """(by_log, planes) over FiniteField(p, d), g its primitive element:
    by_log[i] = #{z : z*z = g^i}, counted over z = g^j (log 2j mod Q - 1),
    twice over so that by_log[j:] starts its rotation by j; bit i of the int
    planes[b] is bit b of by_log[i], so planes[b] >> j is that rotation.
    One table per (p, d)."""
    table = _SQRT_COUNTS.get((p, d))
    if table is None:
        m = p ** d - 1
        by_log = array("B", [0]) * m
        for j in range(0, 2 * m, 2):  # z = g^(j/2) squares to g^j
            by_log[j % m] += 1
        by_log *= 2
        raw = by_log.tobytes()[::-1]  # int(s, 2) reads unit 0 last
        planes = [int(raw.translate(bytes(48 + (v >> b & 1)  # b"0", b"1"
                                          for v in range(256))), 2)
                  for b in range(max(by_log).bit_length())]
        table = _SQRT_COUNTS[p, d] = by_log, planes
    return table


_SMOOTH_SUMS: dict = {}


def _smooth_sum_table(p: int, d: int, log, by_log):
    """(spread, cnt_of_sum) over FiniteField(p, d) for the smooth count:
    spread[k] is key k in base 2p, so two spread keys add digit by digit
    without carries, and cnt_of_sum[s] = cnt[k] = by_log[log[k]] for the key
    k with the digits of s mod p.  One table per (p, d), built at its first
    smooth count, so degenerate counts allocate none."""
    table = _SMOOTH_SUMS.get((p, d))
    if table is None:
        cnt = [1] + [by_log[i] for i in log[1:]]  # 1 at 0, for 0 * 0
        Q, base = p ** d, 2 * p
        spread = [0] * Q
        for k in range(1, Q):
            spread[k] = k % p + base * spread[k // p]
        fold = [0] * base ** d
        for s in range(1, len(fold)):
            fold[s] = s % base % p + p * fold[s // base]
        table = _SMOOTH_SUMS[p, d] = spread, [cnt[k] for k in fold]
    return table


def _extension_with_embedding(kappa: FiniteField, e: int):
    """(L, embed) with L = FiniteField(p, d*e), the default-modulus field of
    order |kappa|^e, and embed: kappa -> L a field map on keys.

    The embedding sends the generator x of kappa to the smallest root r of
    kappa's modulus in L, the first of Poly.roots, and is F_p-linear: the
    image of the key of u = sum c_i x^i, read digit by digit, is the key
    sum of the c_i * r^i, from rows of keys of c * r^i (c < p, i < d) built
    once per (kappa, e).
    """
    p, L = kappa.p, FiniteField(kappa.p, kappa.d * e)
    rows = kappa._roots.get(e)
    if rows is None:
        r = Poly(L, kappa.modulus).roots()[0].key()
        rows = kappa._roots[e] = [[L._kmul(c, L._kpow(r, i)) for c in range(p)]
                                  for i in range(kappa.d)]
    return L, lambda u: reduce(L._kadd, map(getitem, rows, kappa._digits(u)))


def count_fiber_points(C: ConicBundle, P: Place, e: int = 1) -> int:
    """Projective points of the reduced fiber at P over the degree-e
    extension of kappa(P), counted by enumeration.

    The count runs on int keys in L = FiniteField(p, d*e), of order Q, into
    which kappa(P) embeds by a root of its modulus.  With cnt[w] = #{x :
    x^2 = w}, A x^2 + B y^2 = z^2 has Q * sum_w cnt[w] * cnt[c*w] affine
    solutions if c is the only nonzero one of A, B: on the units c*w is the
    rotation by log c, so the sum is 1 (w = 0) plus the sum of 2^(b+b')
    popcount((planes[b] >> log c) & planes[b']) over the Q - 1 units, every
    unit read and no square class.  A smooth fiber sums cnt[u] *
    cnt[v] * cnt[A*u + B*v] over the squares u, v, with A*u and B*v read
    off the same rotations.  Points are (solutions - 1)/(Q - 1).  The
    estimate, Q^2 pairs for a smooth fiber and Q points for a degenerate
    one, goes to check_work before L or any table is built.
    """
    kappa = P.residue_field()
    abar, bbar = _reduced_fiber(C, P)
    Q = kappa.order ** e
    smooth = bool(abar and bbar)
    check_work(f"{'smooth' if smooth else 'degenerate'}-fiber enumeration",
               Q, 2 if smooth else 1)
    L, embed = _extension_with_embedding(kappa, e)
    exp, log = L._log_tables()
    by_log, planes = _sqrt_count_table(L.p, L.d)
    m = Q - 1
    lA, lB = (log[embed(u)] for u in (abar, bbar))  # -1 for zero
    if smooth:
        spread, cnt_of_sum = _smooth_sum_table(L.p, L.d, log, by_log)
        # (c*w, cnt[w]) over the squares w, c*w read off the rotation by log c
        ax2, by2 = ([(0, 1)] + [(spread[exp[k]], n) for k, n
                                in enumerate(by_log[m - lc:2 * m - lc]) if n]
                    for lc in (lA, lB))
        total = 0
        for u, nx in ax2:
            for v, ny in by2:
                total += nx * ny * cnt_of_sum[u + v]
    else:
        lc, mask = max(lA, lB), (1 << m) - 1  # lc: the nonzero coefficient
        total = Q * (1 + sum((hi >> lc & lo & mask).bit_count() << b + b2
                             for b, hi in enumerate(planes)
                             for b2, lo in enumerate(planes)))
    points, rem = divmod(total - 1, m)
    if rem:
        raise RuntimeError("affine solution count is not projective")
    return points
