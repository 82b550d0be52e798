"""Conic bundles a*x^2 + b*y^2 = z^2 over P^1 and their degenerate fibers.

At a place where the quaternion symbol (a,b)_2 ramifies, the fiber of the
minimal local model degenerates to a rank-2 form whose two lines are
swapped by a quadratic twist; the class of that component torsor equals
the tame residue.  The reduced fiber is the one local model: a pair of
kappa(P) keys (ratfunc's local read: at a degree-1 place or infinity two
values in F_q, no polynomial division).  The torsor is read from its unit
alone, by the character of a resultant norm, so it shares no norm with
the residue it is compared with.  A projective point count over the
degree-e extension F_Q of kappa(P) acts as a further oracle, read off the
fiber's geometry: a smooth fiber is a smooth conic, with Q + 1 points by
Chevalley-Warning; a degenerate fiber c*x^2 = z^2 is two conjugate lines
through (0:1:0), with 2Q + 1 points if c is a square in F_Q and 1 if not.
The count decides that by the parity of the discrete log of c in the
default-modulus field F_Q = FiniteField(p, d*e), into which kappa(P)
embeds at a root of pi, so it reads no character and no resultant.
"""

from __future__ import annotations

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
    extension F_Q of kappa(P), read off the fiber's geometry.

    A smooth fiber is a smooth conic: by Chevalley-Warning it has a point
    (Serre, A Course in Arithmetic, ch. I.2), so it has Q + 1, and no field
    or table is built.  A degenerate fiber c*x^2 = z^2 has the singular
    point (0:1:0), and the two lines z = +-sqrt(c)*x through it add 2Q
    more when c is a square in F_Q.  Whether it is comes from the parity
    of the discrete log of c in L = FiniteField(p, d*e), into which
    kappa(P) embeds by a root of its modulus, and not from a character:
    the count stays independent of the torsor it checks.  The estimate, Q
    points, goes to check_work before L or any table is built.
    """
    kappa = P.residue_field()
    abar, bbar = _reduced_fiber(C, P)
    Q = kappa.order ** e
    if abar and bbar:
        return Q + 1
    check_work("degenerate-fiber enumeration", Q)
    L, embed = _extension_with_embedding(kappa, e)
    return 1 if L._log_tables()[embed(abar or bbar)] % 2 else 2 * Q + 1
