"""Conic bundles a*x^2 + b*y^2 = z^2 over P^1 and their degenerate fibers.

At a place where the quaternion symbol (a,b)_2 ramifies, the fiber of the
minimized local model degenerates to a rank-2 form whose two lines are
swapped by a quadratic twist; the class of that component torsor equals
the tame residue.  A projective point-count over the residue field acts as
an independent oracle: a split degenerate conic over F_Q has 2Q+1 points,
a non-split one exactly 1.  The count runs in the default-modulus field
F_Q = FiniteField(p, d*e), into which kappa(P) embeds by evaluation at a
root of pi, with log/exp-table products on the keys, so its tables exist
once per (p, d).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .cohomology import TABLE_GUARD, TableSizeError
from .finitefield import FieldElement, FiniteField, ResidueClass, \
    power_residue_character
from .poly import Poly
from .ratfunc import Place, RatFunc, _local_unit, valuation
from .residues import SymbolClass, _candidate_places, ramification_divisor


class ConicModelError(ValueError):
    """The local model cannot be reduced to a standard degeneration."""


@dataclass(frozen=True)
class ConicBundle:
    a: RatFunc
    b: RatFunc

    def __post_init__(self):
        if self.a.field is not self.b.field:
            raise ValueError("coefficients over different fields")
        if self.a.field.p == 2:
            raise ConicModelError("odd characteristic required")
        if self.a.is_zero() or self.b.is_zero():
            raise ConicModelError("conic coefficients must be nonzero")

    @property
    def field(self) -> FiniteField:
        return self.a.field

    def symbol(self) -> SymbolClass:
        return SymbolClass.symbol(self.a, self.b, 2)

    def __repr__(self):
        return f"({self.a})*x^2 + ({self.b})*y^2 = z^2"


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


def discriminant_places(C: ConicBundle):
    """Places where the quaternion symbol of the bundle ramifies."""
    return ramification_divisor(C.symbol()).places()


def _reduced_fiber(C: ConicBundle, P: Place):
    """(abar, bbar) of minimize_at's fiber over kappa(P), from the local units:
    an odd valuation reduces to 0, and two odd ones give (0, -abar*bbar)."""
    zero = P.residue_field().zero()
    va, ua = _local_unit(C.a, P)
    vb, ub = _local_unit(C.b, P)
    if va % 2 and vb % 2:
        return zero, -(ua * ub)
    return zero if va % 2 else ua, zero if vb % 2 else ub


def component_torsor(C: ConicBundle, P: Place) -> ResidueClass:
    """Square class of the unit coefficient of the degenerate fiber at P.

    The fiber u*X^2 = Z^2 factors into two lines over kappa(P)(sqrt(u));
    the torsor of its components is the class of u.  Errors if the fiber
    at P is a smooth conic.
    """
    abar, bbar = _reduced_fiber(C, P)
    if not abar.is_zero() and not bbar.is_zero():
        raise ConicModelError("fiber is smooth")
    return power_residue_character(abar if bbar.is_zero() else bbar, 2)


def degenerate_places(C: ConicBundle):
    """Places with a degenerate fiber (discriminant places and the split
    degenerations with trivial torsor)."""
    out = []
    for P in _candidate_places(C.symbol()):
        abar, bbar = _reduced_fiber(C, P)
        if abar.is_zero() or bbar.is_zero():
            out.append(P)
    return out


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
    """(cnt, squares) over L = FiniteField(p, d): cnt[k] = #{z in L : z*z has
    key k}, each z*z a log/exp-table product, and squares the keys with
    cnt > 0, so a count visits the squares without a pass over L.  One table
    per (p, d)."""
    table = _SQRT_COUNTS.get((p, d))
    if table is None:
        L = FiniteField(p, d)
        exp, log = L._log_tables()
        m = L.order - 1
        cnt = [0] * L.order
        cnt[0] = 1  # 0 * 0
        for z in range(1, L.order):
            cnt[exp[(log[z] + log[z]) % m]] += 1
        squares = array("l", (w for w, n in enumerate(cnt) if n))
        table = _SQRT_COUNTS[p, d] = cnt, squares
    return table


def _extension_with_embedding(kappa: FiniteField, e: int):
    """(L, embed) with L = FiniteField(p, d*e), the default-modulus field of
    order |kappa|^e, and embed: kappa -> L a field map.

    The embedding sends the generator x of kappa to the smallest root r of
    kappa's modulus in L, the first of Poly.roots, so u = sum c_i x^i goes to the polynomial
    sum c_i t^i evaluated at r; the key of r is found once per (kappa, e)
    and kept on kappa.
    """
    L = FiniteField(kappa.p, kappa.d * e)
    r = kappa._roots.get(e)
    if r is None:
        r = kappa._roots[e] = Poly(L, kappa.modulus).roots()[0].key()
    root = L.from_key(r)
    return L, lambda u: Poly(L, u.coeffs).evaluate(root)


def count_fiber_points(C: ConicBundle, P: Place, e: int = 1) -> int:
    """Projective points of the reduced fiber at P over the degree-e
    extension of kappa(P), counted by enumeration.

    The count runs in L = FiniteField(p, d*e), into which kappa(P) embeds by
    a root of its modulus, with elements as int keys and products read from
    L's log/exp tables.  Affine solutions of A x^2 + B y^2 = z^2 are
    enumerated by one pass over the squares: the square-root count table
    of L gives how many x have x^2 = w, so each square w is multiplied by a
    coefficient once; the projective count is (solutions - 1)/(Q - 1).
    Raises TableSizeError, before L or any table is built, when a smooth
    fiber has Q^2 > 10^6 pairs or a degenerate one Q > 10^6 points.
    """
    kappa = P.residue_field()
    abar, bbar = _reduced_fiber(C, P)
    Q = kappa.order ** e
    smooth = not abar.is_zero() and not bbar.is_zero()
    if smooth and Q * Q > TABLE_GUARD:
        raise TableSizeError(
            f"smooth-fiber enumeration over {Q}^2 pairs exceeds guard")
    if Q > TABLE_GUARD:
        raise TableSizeError(
            f"degenerate-fiber enumeration over {Q} points exceeds guard")
    L, embed = _extension_with_embedding(kappa, e)
    exp, log = L._log_tables()
    cnt, squares = _sqrt_count_table(L.p, L.d)
    m = Q - 1

    def scaled(c: FieldElement):
        """(key of c*w, count of w) over the squares w, for c != 0."""
        lc = log[c.key()]
        return ((exp[(lc + log[w]) % m] if w else 0, cnt[w]) for w in squares)

    A, B = embed(abar), embed(bbar)
    if smooth:
        # keys rewritten in base 2p add digit by digit without carries
        p, base = L.p, 2 * L.p
        spread = [0] * Q
        for k in range(1, Q):
            spread[k] = k % p + base * spread[k // p]
        fold = [0] * base ** L.d
        for s in range(1, len(fold)):
            fold[s] = s % base % p + p * fold[s // base]
        cnt_of_sum = [cnt[k] for k in fold]
        ax2 = [(spread[u], n) for u, n in scaled(A)]
        by2 = [(spread[v], n) for v, n in scaled(B)]
        total = 0
        for u, nx in ax2:
            for v, ny in by2:
                total += nx * ny * cnt_of_sum[u + v]
    else:
        total = sum(n * cnt[u] for u, n in scaled(B if A.is_zero() else A))
        total *= Q  # the missing variable is free
    # projective points = (nonzero affine solutions) / (Q - 1)
    points, rem = divmod(total - 1, Q - 1)
    if rem:
        raise RuntimeError("affine solution count is not projective")
    return points
