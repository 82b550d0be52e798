"""The rational function field F_q(t), its places, valuations and residues.

Places of the projective line over F_q are monic irreducible polynomials
plus the place at infinity, whose uniformizer is fixed as 1/t.  The base
field is required to be a prime field so residue fields F_q[t]/(pi) can be
constructed directly as extensions of F_p.  A place built with Place(F, pi)
is validated by building its residue field: FiniteField rejects a reducible
pi, and its cache means each pi is tested once per process.  Over a non-prime
base field such a place is checked with Poly.is_irreducible and has no
residue field.  The places of a divisor (_divisor, support) are the factors
Poly.factor returns, already proved irreducible, so they skip the re-proof
and take their residue field from the same cache entry.

The local data of f at P, v_P(f) and the image of f/pi^v in kappa(P), come
from one read of num and den (_divide_out_pi).  Where kappa(P) is the base
field F_q, at a place t - c over a prime field and at infinity, the read
returns int keys of F_q: at t - c a Horner pass at c divides by t - c and
leaves g(c) as its remainder, so v counts the passes that return 0 and the
unit is the quotient of the values left; at infinity it is the quotient of
the leading keys.  Its norm to F_q is the unit itself, one inverse in F_q.
At a place of degree >= 2, and at every finite place over F_{p^d}, the read
is the divide-by-pi loop on key lists, whose first nonzero remainders give
the unit in kappa(P) and, by resultants with pi, its norm to F_q.
"""

from __future__ import annotations

from .finitefield import FieldElement, FiniteField
from .poly import Poly, _deflate, _divmod, _gcd, _resultant, _scale


class RatFunc:
    """num/den with den monic and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        F = num.field
        if den is None:
            self.num, self.den = num, Poly._raw(F, (1,))
            return
        if den.field is not F:
            raise ValueError("numerator and denominator over different fields")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        a, b = num.coeffs, den.coeffs
        if not a:
            b = (1,)
        else:
            if len(a) > 1 and len(b) > 1:  # a constant has gcd 1 with b
                g = _gcd(F, a, b)
                if len(g) > 1:
                    a, b = _divmod(F, a, g)[0], _divmod(F, b, g)[0]
            if b[-1] != 1:
                inv = F._kinv(b[-1])
                a, b = _scale(F, a, inv), _scale(F, b, inv)
        self.num, self.den = Poly._raw(F, a), Poly._raw(F, b)

    @classmethod
    def constant(cls, field: FiniteField, c) -> "RatFunc":
        return cls(Poly.constant(field, c))

    @classmethod
    def zero(cls, field: FiniteField) -> "RatFunc":
        return cls(Poly.zero(field))

    @classmethod
    def one(cls, field: FiniteField) -> "RatFunc":
        return cls(Poly.one(field))

    @classmethod
    def gen(cls, field: FiniteField) -> "RatFunc":
        """The rational function t."""
        return cls(Poly.gen(field))

    @property
    def field(self) -> FiniteField:
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.field is not self.field:
                raise ValueError("rational functions over different fields")
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        if isinstance(other, (int, FieldElement)):
            return RatFunc(Poly(self.field, (other,)))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return RatFunc(self.num ** e, self.den ** e)

    def __eq__(self, other):
        if isinstance(other, (int, FieldElement, Poly)):
            # Poly's == is False for another field, as here
            return self.den.coeffs == (1,) and self.num == other
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (other.field is self.field and other.num == self.num
                and other.den == self.den)

    def __hash__(self):
        # equal to its numerator when the denominator is 1, so hash alike
        if self.den.coeffs == (1,):
            return hash(self.num)
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == Poly.one(self.field):
            return repr(self.num)
        return f"({self.num})/({self.den})"


class Place:
    """A closed point of P^1 over F_q: a monic irreducible, or infinity."""

    __slots__ = ("field", "poly", "_residue")

    def __init__(self, field: FiniteField, poly: Poly | None = None):
        residue = field
        if poly is not None:
            if poly.field is not field:
                raise ValueError("polynomial over a different field")
            valid = poly.is_monic() and poly.degree >= 1
            if valid and field.d != 1:
                # FiniteField cannot represent F_{p^d}[t]/(pi)
                valid, residue = poly.is_irreducible(), None
            elif valid and poly.degree > 1:
                # kappa(P) exists exactly when pi is irreducible, and the
                # field cache tests each pi once per process
                try:
                    residue = FiniteField(field.p, poly.degree, poly.coeffs)
                except ValueError:
                    valid = False
            if not valid:
                raise ValueError("a finite place needs a monic irreducible")
        self.field = field
        self.poly = poly
        self._residue = residue

    @classmethod
    def _proved(cls, field: FiniteField, poly: Poly) -> "Place":
        """The place of a monic factor that Poly.factor has proved
        irreducible, built without a second test."""
        self = object.__new__(cls)
        self.field, self.poly = field, poly
        self._residue = (None if field.d != 1 else field if poly.degree == 1
                         else FiniteField._proved(field.p, poly.degree,
                                                  poly.coeffs))
        return self

    @classmethod
    def infinity(cls, field: FiniteField) -> "Place":
        return cls(field, None)

    @property
    def is_infinity(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.is_infinity else self.poly.degree

    def key(self):
        """Sort key: (degree, coefficients), with infinity last."""
        if self.is_infinity:
            return (1, 0, ())
        return (0, self.degree, self.poly.key()[1])

    def uniformizer(self) -> RatFunc:
        if self.is_infinity:
            return RatFunc(Poly.one(self.field), Poly.gen(self.field))
        return RatFunc(self.poly)

    def residue_field(self) -> FiniteField:
        """F_q[t]/(pi) for a finite place; F_q itself at infinity."""
        if self._residue is None:
            raise NotImplementedError(
                "places are supported over prime base fields only")
        return self._residue

    def __eq__(self, other):
        return (isinstance(other, Place) and other.field is self.field
                and other.poly == self.poly)

    def __hash__(self):
        return hash((id(self.field), self.poly))

    def __repr__(self):
        return "inf" if self.is_infinity else repr(self.poly)


def _divide_out_pi(f: RatFunc, P: Place):
    """(v, rn, rd) with f = pi^v * g, g a unit at P, and g mod P = rn/rd.
    Where kappa(P) is the base field, rn and rd are keys of it: at a place
    t - c over a prime field the values at c left by poly._deflate, at
    infinity the leading coefficients.  At a place of degree >= 2, and at
    every finite place over F_{p^d}, they are the key lists of the first
    nonzero remainders of num and den in the divide-by-pi loop."""
    if f.is_zero():
        raise ValueError("valuation of zero")
    num, den = f.num.coeffs, f.den.coeffs
    if P.poly is None:
        return len(den) - len(num), num[-1], den[-1]
    F, pi = f.field, P.poly.coeffs
    if len(pi) == 2 and F.d == 1:
        (mn, _, rn), (md, _, rd) = (_deflate(F, g, -pi[0] % F.p)
                                    for g in (num, den))
        return mn - md, rn, rd

    def split(g):
        m, (q, r) = 0, _divmod(F, g, pi)
        while not r:
            m, (q, r) = m + 1, _divmod(F, q, pi)
        return m, r

    # num and den are coprime, so at most one of the counts is nonzero
    (mn, rn), (md, rd) = split(num), split(den)
    return mn - md, rn, rd


def _unit_key(f: RatFunc, P: Place):
    """(v, k) with f = pi^v * g, g a unit at P, and k the key of g mod P in
    kappa(P) (None where kappa(P) is not built): one inverse in kappa(P)."""
    v, rn, rd = _divide_out_pi(f, P)
    kappa = P._residue
    if kappa is None:
        return v, None
    if kappa is not f.field:
        # the F_p keys of a remainder mod pi are the digits of its kappa(P) key
        rn, rd = kappa._key(rn), kappa._key(rd)
    return v, kappa._kmul(rn, kappa._kinv(rd))


def _unit_norm(P: Place, rn, rd) -> int:
    """The key of the norm from kappa(P) to the base field of the unit
    rn/rd mod P, for the remainders of one _divide_out_pi read.  Where
    kappa(P) is the base field (degree 1, infinity) it is rn/rd itself;
    otherwise Res(pi, rn) / Res(pi, rd) for the monic pi, with no kappa(P)
    arithmetic.  Raises NotImplementedError where kappa(P) is not built."""
    F = P.field
    if P.residue_field() is not F:  # raises NotImplementedError: no kappa(P)
        pi = P.poly.coeffs
        rn, rd = _resultant(F, pi, rn), _resultant(F, pi, rd)
    return F._kmul(rn, F._kinv(rd))


def valuation(f: RatFunc, P: Place) -> int:
    """Order of vanishing of f at P; errors on f = 0."""
    return _divide_out_pi(f, P)[0]


def reduce_at(f: RatFunc, P: Place) -> FieldElement:
    """Image of a unit f in the residue field at P."""
    v, k = (1, None) if f.is_zero() else _unit_key(f, P)
    if v != 0:
        raise ValueError("not a unit at P")
    # raises NotImplementedError where kappa(P) is not built
    return P.residue_field().from_key(k)


def degree_one_place(field: FiniteField, c) -> Place:
    """The place t - c."""
    return Place(field, Poly.gen(field) - field.element(c))


def _divisor(f: RatFunc) -> dict:
    """{P: v_P(f)} over the finite places where f has a zero or a pole, read
    off factor() of the numerator (+multiplicity), then of the denominator
    (-multiplicity)."""
    div = {}
    for part, sign in ((f.num, 1), (f.den, -1)):
        if part.degree > 0:
            for g, mult in part.factor():
                div[Place._proved(f.field, g)] = sign * mult
    return div


def support(f: RatFunc):
    """Finite places where f has a zero or a pole."""
    return list(_divisor(f))
