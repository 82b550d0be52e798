"""The local minimization that brauer.conic exported before the reduced
fiber became its one minimal model: the model built in F_q(t) arithmetic,
with powers of the uniformizer.  Kept as the oracle that test_conic.py
reads conic._reduced_fiber against."""

from __future__ import annotations

from brauer.conic import ConicBundle
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
