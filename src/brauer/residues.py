"""Cyclic symbol classes over F_q(t) and their residues.

Two independent residue computations live here: the tame-symbol formula

    res_P((a,b)_n) = chi( (-1)^(v(a)v(b)) * a^v(b) * b^(-v(a)) mod P )

and the Cech-cocycle route through the n-th root cover, which computes the
residue of pi^j-by-unit symbols from the epsilon cocycle.  Since n | q - 1,
the tame formula is read in F_q: for u in kappa(P), of order Q = q^deg P,
u^((Q-1)/n) = N(u)^((q-1)/n) with N the norm to F_q, and kappa(P).zeta(n)
is F_q's zeta, so the residue is the character of the norm of the tame
unit on F_q, the same number as its corestriction.  That norm is
(-1)^(v(a)v(b)deg P) N(a)^v(b) N(b)^(-v(a)).  One ratfunc._divide_out_pi
read of an argument at P gives its valuation and the remainders that
ratfunc._unit_norm takes its norm from, with no kappa(P) arithmetic: at a
degree-1 place and at infinity it is the argument's unit in F_q, from the
values at the root (or the leading keys), and at a place of degree >= 2 a
resultant of pi and the argument's remainder.  The cocycle route still
reduces its unit into kappa(P) (ratfunc._unit_key), so route agreement
compares two readings of the unit.  The tame unit is 1 where both
arguments are units, so the whole-sum maps (ramification_divisor,
reciprocity_sum) factor each argument once into its divisor and evaluate
a term at a finite place only if the place is in the divisor of one of
its arguments, with the valuations read off the divisors; infinity is
evaluated for every term.  An argument's norm is read only where it
enters, at a place where the other argument has nonzero valuation.  The
sign normalization is pinned by res((pi, u)_n) = -[u].
"""

from __future__ import annotations

from functools import lru_cache

from .cohomology import _epsilon_checked
from .finitefield import FiniteField, ResidueClass, power_residue_character
from .ratfunc import (Place, RatFunc, _divide_out_pi, _divisor, _unit_key,
                      _unit_norm, valuation)


class SymbolClass:
    """Formal sum of cyclic symbols sum_i m_i * (a_i, b_i)_n in Br(K)[n]."""

    __slots__ = ("n", "terms")  # terms: a tuple of (RatFunc, RatFunc, int)

    def __init__(self, n: int, terms):
        if n < 2:
            raise ValueError(f"symbol modulus n={n} must be >= 2")
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
        self.n = n
        self.terms = tuple(norm)

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

    def __eq__(self, other):
        if not isinstance(other, SymbolClass):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, self.terms))

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


def _tame_norm(P: Place, ra, rb) -> int:
    """The key of the norm to F_q of the tame unit (-1)^(va*vb) * a^vb *
    b^(-va) mod P, from the reads ra = (va, rn, rd) of a and rb of b at P
    (ratfunc._divide_out_pi): (-1)^(va*vb*deg P) * N(a)^vb * N(b)^(-va).
    a's remainders enter only when vb != 0 and b's when va != 0; a read
    whose remainders do not enter may be (v, None, None)."""
    F, norm = P.field, 1
    (va, *ua), (vb, *ub) = ra, rb
    if vb:
        norm = F._kpow(_unit_norm(P, *ua), vb)
    if va:
        norm = F._kmul(norm, F._kpow(_unit_norm(P, *ub), -va))
    return F._kneg(norm) if (va * vb * P.degree) % 2 else norm


def _character(F: FiniteField, norm: int, n: int) -> int:
    """The n-th power residue character of a norm key on F_q, as an int."""
    return power_residue_character(F.from_key(norm), n).value


def tame_residue(alpha: SymbolClass, P: Place) -> ResidueClass:
    """Residue of a symbol sum at P via the tame-symbol formula, read from
    the norm of each term's tame unit."""
    n = alpha.n
    kappa = P.residue_field()
    if (kappa.order - 1) % n != 0:
        raise ValueError(f"n={n} must divide |kappa(P)|-1={kappa.order - 1}")
    total = 0
    for a, b, m in alpha.terms:
        norm = _tame_norm(P, _divide_out_pi(a, P), _divide_out_pi(b, P))
        total += m * _character(P.field, norm, n)
    return ResidueClass(n, total, kappa.zeta(n))


def residue_cocycle_route(j: int, u: RatFunc, P: Place, n: int) -> ResidueClass:
    """Residue of (pi_P^j, u)_n computed through the root-cover cocycle: the
    edge value of the epsilon cocycle of pi^j (see _epsilon_edge) paired
    with the unit's residue character.  Always equals -j * chi(u mod P)."""
    v, k = (1, None) if u.is_zero() else _unit_key(u, P)
    if v != 0:
        raise ValueError("second symbol argument must be a unit at P")
    kappa = P.residue_field()
    if (kappa.order - 1) % n != 0:
        raise ValueError(f"n={n} must divide |kappa(P)|-1={kappa.order - 1}")
    chi = power_residue_character(kappa.from_key(k), n)
    return ResidueClass(n, _epsilon_edge(n, j % n) * chi.value, chi.zeta)


@lru_cache(maxsize=None)
def _epsilon_edge(n: int, j: int) -> int:
    """sum_b v(eps_{b,1}) in H^2(Z/n, Z) = Z/n for the epsilon cocycle of pi^j,
    read from the table the Cech coboundary identity was checked on; once
    per (n, j mod n)."""
    eps, holds = _epsilon_checked(n, power=j)
    if not holds:
        raise RuntimeError("coboundary identity failed")  # never happens
    return sum(eps[(b, 1 % n)].pi_steps for b in range(n)) // n


def _sorted_places(divisors):
    """The places of the divisors, sorted by Place.key (infinity last)."""
    return sorted({P for div in divisors for P in div}, key=Place.key)


def _candidate_places(alpha: SymbolClass):
    """Every place where some symbol argument has a zero or a pole, then
    infinity; none for the zero class."""
    if alpha.field is None:
        return []
    return (_sorted_places(_divisor(f) for a, b, _ in alpha.terms
                           for f in (a, b))
            + [Place.infinity(alpha.field)])


def _residue_values(alpha: SymbolClass):
    """(P, residue value as an int) at each candidate place in order, from
    the terms with a zero or pole at P, one character of a tame norm per
    term.  Each argument is factored once into its divisor, to which its
    valuation at infinity, last in the order, is added."""
    F, n, inf = alpha.field, alpha.n, Place.infinity(alpha.field)
    terms = []
    for a, b, m in alpha.terms:
        da, db = _divisor(a), _divisor(b)
        da[inf], db[inf] = valuation(a, inf), valuation(b, inf)
        terms.append((a, b, m, da, db))
    for P in _sorted_places(div for *_, da, db in terms for div in (da, db)):
        total = 0
        for a, b, m, da, db in terms:
            va, vb = da.get(P, 0), db.get(P, 0)
            if va or vb:
                ra = _divide_out_pi(a, P) if vb else (va, None, None)
                rb = _divide_out_pi(b, P) if va else (vb, None, None)
                total += m * _character(F, _tame_norm(P, ra, rb), n)
        yield P, total


def ramification_divisor(alpha: SymbolClass) -> RamificationDivisor:
    """Residues at every place in the support of the arguments, plus infinity.

    A term is evaluated only at the zeros and poles of its arguments and at
    infinity, since its tame unit is 1 where both are units; zero residues
    are omitted.
    """
    n, entries = alpha.n, {}
    if alpha.field is not None:
        for P, value in _residue_values(alpha):
            entries[P] = ResidueClass(n, value, P.residue_field().zeta(n))
    return RamificationDivisor(entries)


def reciprocity_sum(alpha: SymbolClass) -> ResidueClass:
    """Sum over all places of the corestricted residues; always zero.

    A residue is the character of its tame unit's norm to the base field,
    so it is its own corestriction, and places of every degree contribute
    in the same group.
    """
    n = alpha.n
    field = alpha.field
    if field is None:
        raise ValueError("empty symbol has no base field")
    zeta = field.zeta(n)
    total = sum(value for _, value in _residue_values(alpha))
    return ResidueClass(n, total, zeta)
