"""References that test_conic.py reads brauer.conic against.

minimize_at is the local minimization that brauer.conic exported before
the reduced fiber became its one minimal model: the model built in F_q(t)
arithmetic, with powers of the uniformizer, the oracle for
conic._reduced_fiber.  extension_with_embedding and key_reference_count
count the points of a degenerate fiber in the real extension field F_Q of
kappa(P), into which kappa(P) is embedded, the oracle for
count_fiber_points.
"""

from __future__ import annotations

from functools import cache, reduce
from operator import getitem

from brauer.conic import ConicBundle
from brauer.finitefield import FiniteField
from brauer.poly import Poly
from brauer.ratfunc import Place, RatFunc, valuation


def minimize_at(C: ConicBundle, P: Place):
    """Local model (a0, b0, -1) with v_P(a0), v_P(b0) in {0, 1}, not both 1.

    Even parts of the valuations are square factors of the uniformizer and
    are stripped; if both coefficients still vanish to order one, the
    symbol identity (a, b) = (a, -a*b) trades b for a unit.  The symbol
    class at P is unchanged throughout.
    """
    pi = P.uniformizer()
    va, vb = valuation(C.a, P), valuation(C.b, P)
    a = C.a * pi ** (-2 * (va // 2))
    b = C.b * pi ** (-2 * (vb // 2))
    if va % 2 and vb % 2:
        b = (-a * b) * pi ** -2
    return (a, b, RatFunc.constant(C.field, -1))


@cache
def extension_with_embedding(kappa: FiniteField, e: int):
    """(L, embed) with L = FiniteField(p, d*e), the default-modulus field of
    order |kappa|^e, and embed: kappa -> L a field map on keys.

    The embedding sends the generator x of kappa to the smallest root r of
    kappa's modulus in L, the first of Poly.roots, and is F_p-linear: the
    image of the key of u = sum c_i x^i, read digit by digit, is the key
    sum of the c_i * r^i, from rows of keys of c * r^i (c < p, i < d).
    """
    p, L = kappa.p, FiniteField(kappa.p, kappa.d * e)
    r = Poly(L, kappa.modulus).roots()[0].key()
    rows = [[L._kmul(c, L._kpow(r, i)) for c in range(p)]
            for i in range(kappa.d)]
    return L, lambda u: reduce(L._kadd, map(getitem, rows, kappa._digits(u)))


@cache
def _square_counts(L: FiniteField):
    """cnt, with cnt[w] the number of z in L with z^2 = w, by L._kmul."""
    cnt = [0] * L.order
    for z in range(L.order):
        cnt[L._kmul(z, z)] += 1
    return cnt


@cache
def key_reference_count(L: FiniteField, c: int) -> int:
    """Projective points of c*x^2 + 0*y^2 = z^2 over L for a unit key c:
    (Q * sum_w cnt[w] * cnt[c*w] - 1)/(Q - 1), the affine solutions of
    c*x^2 = z^2 times the Q values of y, less the origin, over the Q - 1
    scalings, with every product c*w taken by L._kmul, no log read."""
    Q, cnt = L.order, _square_counts(L)
    affine = Q * sum(cnt[w] * cnt[L._kmul(c, w)] for w in range(Q))
    points, rem = divmod(affine - 1, Q - 1)
    assert not rem
    return points
