"""Cyclic symbol classes over F_q(t) and their residues.

Two independent residue computations live here: the tame-symbol formula

    res_P((a,b)_n) = chi( (-1)^(v(a)v(b)) * a^v(b) * b^(-v(a)) mod P )

and the Cech-cocycle route through the n-th root cover, which computes the
residue of pi^j-by-unit symbols from the epsilon cocycle.  The sign
normalization is pinned by res((pi, u)_n) = -[u].
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import epsilon_cocycle, verify_coboundary_identity
from .finitefield import (FiniteField, ResidueClass, corestrict,
                          power_residue_character)
from .ratfunc import Place, RatFunc, reduce_at, support, valuation


@dataclass(frozen=True)
class SymbolClass:
    """Formal sum of cyclic symbols sum_i m_i * (a_i, b_i)_n in Br(K)[n]."""

    n: int
    terms: tuple  # of (RatFunc, RatFunc, int)

    def __init__(self, n: int, terms):
        norm = []
        field = None
        for a, b, *m in terms:
            m = m[0] if m else 1
            if a.is_zero() or b.is_zero():
                raise ValueError("symbol arguments must be nonzero")
            field = a.field
            m %= n
            if m:
                norm.append((a, b, m))
        if field is not None and (field.order - 1) % n != 0:
            raise ValueError(f"n={n} must divide q-1={field.order - 1}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", tuple(norm))

    @classmethod
    def symbol(cls, a: RatFunc, b: RatFunc, n: int) -> "SymbolClass":
        return cls(n, [(a, b, 1)])

    @property
    def field(self) -> FiniteField | None:
        return self.terms[0][0].field if self.terms else None

    def __add__(self, other: "SymbolClass") -> "SymbolClass":
        if self.n != other.n:
            raise ValueError("symbols with different moduli")
        return SymbolClass(self.n, self.terms + other.terms)

    def __repr__(self):
        if not self.terms:
            return f"0_(n={self.n})"
        return " + ".join(
            (f"{m}*" if m != 1 else "") + f"({a}, {b})_{self.n}"
            for a, b, m in self.terms)


class RamificationDivisor:
    """Finitely many places with a nonzero residue class at each."""

    def __init__(self, entries):
        items = [(P, r) for P, r in entries.items() if not r.is_zero()]
        items.sort(key=lambda pr: pr[0].key())
        self.entries = dict(items)

    def places(self):
        return list(self.entries)

    def __getitem__(self, P: Place) -> ResidueClass:
        return self.entries[P]

    def __contains__(self, P: Place) -> bool:
        return P in self.entries

    def __len__(self):
        return len(self.entries)

    def items(self):
        return self.entries.items()

    def __eq__(self, other):
        return (isinstance(other, RamificationDivisor)
                and self.entries == other.entries)

    def __repr__(self):
        inner = ", ".join(f"({P}): {r.value}" for P, r in self.entries.items())
        return "{" + inner + "}"


def _tame_unit(a: RatFunc, b: RatFunc, P: Place):
    """(-1)^(v(a)v(b)) * a^v(b) * b^(-v(a)) reduced into kappa(P)."""
    va, vb = valuation(a, P), valuation(b, P)
    unit = (a ** vb) * (b ** (-va))
    if (va * vb) % 2:
        unit = -unit
    return reduce_at(unit, P)


def tame_residue(alpha: SymbolClass, P: Place) -> ResidueClass:
    """Residue of a symbol sum at P via the tame-symbol formula."""
    n = alpha.n
    kappa = P.residue_field()
    if (kappa.order - 1) % n != 0:
        raise ValueError(f"n={n} must divide |kappa(P)|-1={kappa.order - 1}")
    total = 0
    for a, b, m in alpha.terms:
        total += m * power_residue_character(_tame_unit(a, b, P), n).value
    return ResidueClass(n, total, kappa.zeta(n))


def residue_cocycle_route(j: int, u: RatFunc, P: Place, n: int) -> ResidueClass:
    """Residue of (pi_P^j, u)_n computed through the root-cover cocycle.

    Builds the epsilon cocycle for the j-th power of the uniformizer,
    checks the Cech coboundary identity that trades the twisted
    representative for epsilon, and reads the residue off the valuations
    of epsilon paired with the unit's residue character.  Always equals
    -j * chi(u mod P).
    """
    if u.is_zero() or valuation(u, P) != 0:
        raise ValueError("second symbol argument must be a unit at P")
    kappa = P.residue_field()
    if (kappa.order - 1) % n != 0:
        raise ValueError(f"n={n} must divide |kappa(P)|-1={kappa.order - 1}")
    if not verify_coboundary_identity(n, power=j % n):
        raise RuntimeError("coboundary identity failed")  # never happens
    eps = epsilon_cocycle(n, power=j % n)
    # the epsilon class sits in H^2(Z/n, Z) after taking valuations; its
    # value under the standard identification with Z/n is sum_b v(eps_{b,1})
    edge = sum(int(eps[(b, 1 % n)].pi_exponent) for b in range(n))
    chi = power_residue_character(reduce_at(u, P), n)
    return ResidueClass(n, edge * chi.value, chi.zeta)


def _candidate_places(alpha: SymbolClass):
    if alpha.field is None:
        return []
    seen = {}
    for a, b, _ in alpha.terms:
        for f in (a, b):
            for P in support(f):
                seen[P] = True
    places = sorted(seen, key=lambda P: P.key())
    places.append(Place.infinity(alpha.field))
    return places


def ramification_divisor(alpha: SymbolClass) -> RamificationDivisor:
    """Residues at every place in the support of the arguments, plus infinity.

    Places where both arguments are units are provably unramified and are
    skipped; zero residues are omitted.
    """
    return RamificationDivisor(
        {P: tame_residue(alpha, P) for P in _candidate_places(alpha)})


def is_unramified_at(alpha: SymbolClass, P: Place) -> bool:
    return tame_residue(alpha, P).is_zero()


def reciprocity_sum(alpha: SymbolClass) -> ResidueClass:
    """Sum over all places of the corestricted residues; always zero.

    Each per-place residue is corestricted to the base field through the
    field norm before summing, so places of every degree contribute in the
    same group.
    """
    n = alpha.n
    field = alpha.field
    if field is None:
        raise ValueError("empty symbol has no base field")
    zeta = field.zeta(n)
    total = 0
    for P in _candidate_places(alpha):
        for a, b, m in alpha.terms:
            total += m * corestrict(_tame_unit(a, b, P), n).value
    return ResidueClass(n, total, zeta)
