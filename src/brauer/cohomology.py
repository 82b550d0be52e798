"""Explicit cohomology of finite abelian groups with Z/m coefficients.

Cochains are inhomogeneous, in one numbering: a cochain G^k -> Z/m is the
tuple of its values in tuple-product order, an element's position the
number its coordinates write in the mixed radix of the group's factors,
the first most significant.  The bar differential, the integer one for
the trivial action, is written once, as its k + 2 face maps over those
positions (Brown, Cohomology of Groups, ch. IV), cached by _faces.  A
coboundary reads c's values at each face and adds them with alternating
signs; coboundary_matrix's sparse rows are the merge of the same faces,
kept for solve_mod.  In degree 2, cohomologous-ness and the edge map's
fiber check walk the generators for an f with df = b and compare df,
read through the same faces, with b; other degrees call solve_mod.  Ranks
need no cochain: they are read off an elimination over Z/p^e of the
small complex Hom(P, Z), P the tensor product of the cyclic factors'
periodic resolutions, with C(k+r-1, r-1) coordinates in degree k for r
nontrivial factors, where the bar complex has |G|^k.  The
multiplicative group mu_n is written additively as Z/n throughout, via the
canonical primitive root of the ambient field.

Also here: the formal-unit calculus for the Cech coboundary identity on the
n-th root cover of a DVR, and the factor set of the monomial-matrix central
extension of mu_n x Z/n (scalars, the n-cycle permutation C, and the
diagonal D of successive root-of-unity powers), read off the section
S_(beta,b) = D^beta C^b, each matrix held as the column and entry of each
row.  A formal unit holds its pi-exponent as an int count of 1/n steps,
so the identity is checked in integer arithmetic, once for each pair
(b, b'): the translation's zeta^(power*beta*b') cancels for every beta.
A cochain built by a caller goes through the public constructor, which
checks the group, degree, modulus and number of values and reduces each
value mod m.  The package's own results (the ring operations, coboundary,
random cochains, the box product, the edge map and the factor set) come
through Cochain._raw instead: each computes and reduces its values in one
pass, and _raw stores them unchecked under its contract.
TableSizeError, its bound TABLE_GUARD and check_work, the one function
that raises it, live here: every operation of the package that may build
more than TABLE_GUARD entries passes its estimate of them to check_work
before it builds anything.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random

from .finitefield import FiniteField, prime_powers
from .snf import _eliminate, solve_mod

TABLE_GUARD = 10 ** 6  # the one work bound on tables, matrices and parsing


class TableSizeError(ValueError):
    """Raised by check_work when an operation would build more than
    TABLE_GUARD entries."""


def check_work(what: str, base: int, power: int = 1, least: int = 0):
    """Raise TableSizeError, stating the estimate, when building ``what``
    takes more than TABLE_GUARD entries by the caller's estimate
    max(base^power, least).  A base >= 2 to a power of
    TABLE_GUARD.bit_length() or more exceeds the guard and is not formed."""
    big = base > 1 and power >= TABLE_GUARD.bit_length()
    if not big and base ** power <= TABLE_GUARD and least <= TABLE_GUARD:
        return
    shown = (f"{least}" if not big and least > base ** power
             else f"{base}^{power}" if power != 1 else f"{base}")
    raise TableSizeError(f"{what} of {shown} entries exceeds the guard "
                         f"{TABLE_GUARD}")


class FiniteAbelianGroup:
    """Product of cyclic groups Z/m1 x ... x Z/mk; ``elements`` lists its
    tuples in tuple-product order, so an element's position is the
    mixed-radix number of its coordinates over ``factors``, the first most
    significant."""

    def __init__(self, factors):
        self.factors = factors = tuple(map(int, factors))
        if min(factors, default=1) < 1:
            raise ValueError("cyclic factors must be >= 1")
        self.size = math.prod(factors)
        self._elements = None

    def elements(self):
        if self._elements is None:
            check_work("element list", self.size)
            self._elements = list(itertools.product(*(range(m)
                                                      for m in self.factors)))
        return self._elements

    def add(self, g, h):
        return tuple((a + b) % m for a, b, m in zip(g, h, self.factors))

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return " x ".join(f"Z/{m}" for m in self.factors)


class Cochain:
    """A total function group^degree -> Z/modulus.  ``values`` is a tuple in
    tuple-product order, the column order of coboundary_matrix, of ints in
    [0, modulus).  The constructor checks its arguments and reduces each
    value mod modulus; it takes a function of the degree arguments or a
    sequence of |G|^degree values.  The cochains this module computes are
    built by _raw, which checks nothing."""

    def __init__(self, group: FiniteAbelianGroup, degree: int, modulus: int,
                 values=None):
        if degree < 0:
            raise ValueError("negative cochain degree")
        if modulus < 1:
            raise ValueError(f"cochain modulus must be >= 1, got {modulus}")
        # |G|^degree values, or the trivial group's one degree-tuple
        check_work("cochain table", group.size, degree, least=degree)
        self.group = group
        self.degree = degree
        self.modulus = modulus
        size = group.size ** degree
        if values is None:
            self.values = (0,) * size
            return
        if callable(values):
            values = [values(*k) for k in
                      itertools.product(group.elements(), repeat=degree)]
        elif isinstance(values, dict):
            raise TypeError("cochain values are a sequence in tuple-product "
                            "order, not a dict")
        self.values = tuple([v % modulus for v in values])
        if len(self.values) != size:
            raise ValueError(f"a degree-{degree} cochain on {group} has "
                             f"{size} values, got {len(self.values)}")

    @classmethod
    def _raw(cls, group: FiniteAbelianGroup, degree: int, modulus: int,
             values) -> "Cochain":
        """The cochain with these values, not checked: they are ints in
        [0, modulus), |group|^degree of them."""
        self = object.__new__(cls)
        self.group, self.degree, self.modulus = group, degree, modulus
        self.values = tuple(values)
        return self

    def __call__(self, *args) -> int:
        factors, i = self.group.factors, 0
        if len(args) != self.degree:
            raise KeyError(args)
        for g in args:  # the digits of all the arguments' coordinates
            if len(g) != len(factors):
                raise KeyError(args)
            for x, m in zip(g, factors):
                if not 0 <= x < m:
                    raise KeyError(args)
                i = i * m + x
        return self.values[i]

    def _compat(self, other):
        if (self.group != other.group or self.degree != other.degree
                or self.modulus != other.modulus):
            raise ValueError("incompatible cochains")

    def _new(self, values):
        # values reduced mod self.modulus by the caller
        return Cochain._raw(self.group, self.degree, self.modulus, values)

    def __add__(self, other):
        self._compat(other)
        m = self.modulus
        return self._new([(a + b) % m for a, b in zip(self.values,
                                                      other.values)])

    def __sub__(self, other):
        self._compat(other)
        m = self.modulus
        return self._new([(a - b) % m for a, b in zip(self.values,
                                                      other.values)])

    def __neg__(self):
        m = self.modulus
        return self._new([-v % m for v in self.values])

    def __mul__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        m = self.modulus
        return self._new([k * v % m for v in self.values])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.values)

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.group == other.group
                and self.degree == other.degree and self.modulus == other.modulus
                and self.values == other.values)

    def __repr__(self):
        return (f"Cochain(deg={self.degree}, {self.group}, "
                f"Z/{self.modulus}, {len(self.values)} entries)")

    @classmethod
    def random(cls, group, degree, modulus, rng: random.Random):
        check_work("cochain table", group.size, degree, least=degree)
        values = [rng.randrange(modulus) for _ in range(group.size ** degree)]
        return cls._raw(group, degree, modulus, values)


def coboundary(c: Cochain) -> Cochain:
    """Inhomogeneous differential with trivial coefficients, d(d(c)) = 0,
    by _differential."""
    G, m = c.group, c.modulus
    values = [v % m for v in _differential(G, c.degree, c.values)]
    return Cochain._raw(G, c.degree + 1, m, values)


def _differential(group: FiniteAbelianGroup, k: int, values):
    """d_k of the |G|^k ``values``, unreduced, as an iterator: ``values``
    read at each of the k + 2 faces of _faces, added with alternating
    signs."""
    faces = _faces(group, k)
    if len(faces[0]) == 1:  # itemgetter of one item returns it bare
        cols = [(values[face[0]],) for face in faces]
    else:
        cols = [operator.itemgetter(*face)(values) for face in faces]
    total = cols[0]
    for j, col in enumerate(cols[1:], 1):
        total = map(operator.sub if j % 2 else operator.add, total, col)
    return total


def is_cocycle(c: Cochain) -> bool:
    return coboundary(c).is_zero()


@functools.lru_cache(maxsize=16)
def _faces(group: FiniteAbelianGroup, k: int):
    """d_k : C^k -> C^{k+1} as its k + 2 face maps, in the tuple-product
    bases: face j is a tuple whose r-th entry is the position of the j-th
    face of the r-th (k+1)-tuple g_1..g_{k+1}, that is g_2..g_{k+1}, then
    ..g_i + g_{i+1}.. for i = 1..k, then g_1..g_k, and d_k c is the sum
    over j of (-1)^j c at face j.  Every entry is taken from one list of
    the |G|^k positions, so the faces hold no int of their own.  Cached
    per (group, k)."""
    # |G|^(k+1) entries a face, or the trivial group's k + 2 faces
    check_work("coboundary faces", group.size, k + 1, least=k + 2)
    n = group.size
    positions = list(range(n ** k))

    def face(before, mid, after):
        # r = (hi * len(mid) + j) * n^after + lo: the face keeps the
        # `before` digits hi and the `after` digits lo of the (k+1)-tuple,
        # and puts mid[j] between them, the position of the sum of its two
        # digits j, or nothing (width 1) for the one digit it drops
        low, width = n ** after, n ** (k - before - after)
        return tuple([positions[(hi * width + s) * low + lo]
                      for hi in range(n ** before) for s in mid
                      for lo in range(low)])

    # add holds the position of g + h at g's position times n plus h's,
    # built a factor at a time: for G = G' x Z/m, (g'm + x) + (h'm + y) sits
    # at (g' + h')m + (x + y) mod m, the x-th rotation of block g' + h' of m
    # positions.  d_0 merges no faces, so needs no sums
    add, size = positions[:1], 1
    for m in group.factors if k else ():
        blocks = [positions[s * m:(s + 1) * m] * 2 for s in range(size)]
        add = list(itertools.chain.from_iterable(
            blocks[s][x:x + m] for row in range(0, size * size, size)
            for x in range(m) for s in add[row:row + size]))
        size *= m
    drop = (0,) * n
    return (face(0, drop, k),
            *(face(i, add, k - 1 - i) for i in range(k)),
            face(k, drop, 0))


@functools.lru_cache(maxsize=16)
def coboundary_matrix(group: FiniteAbelianGroup, k: int):
    """d_k : C^k -> C^{k+1} in the tuple-product bases, as rows of
    (column, coefficient) pairs: row r merges the r-th entries of the
    k + 2 faces of _faces, face j with coefficient (-1)^j, zeros dropped:
    at most k+2 pairs.  Kept for solve_mod and _eliminate, which read
    rows.  Immutable tuples, cached per (group, k)."""
    faces = _faces(group, k)
    signs = [(-1) ** j for j in range(k + 2)]
    rows, pairs = [], {}  # one tuple per distinct pair, shared by the rows
    for cols in zip(*faces):
        row = {}
        for col, sign in zip(cols, signs):
            row[col] = row.get(col, 0) + sign
        rows.append(tuple(pairs.setdefault(ja, ja)
                          for ja in row.items() if ja[1]))
    return tuple(rows)


def _compositions(k: int, r: int):
    """The r-tuples of ints >= 0 summing to k, in lexicographic order: by
    stars and bars, the gaps between r - 1 bars placed among k + r - 1
    slots, whose combinations come in the same order."""
    if r == 0:
        return [()] if k == 0 else []
    return [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (k + r - 1,)))
            for bars in itertools.combinations(range(k + r - 1), r - 1)]


def _resolution_differential(factors, k: int):
    """d_k : C^k -> C^{k+1} of Hom(P, Z), P the tensor product of the
    periodic resolutions of the cyclic factors Z/a > 1, trivial action.

    C^k has one coordinate per multi-index s with sum k, in the order of
    ``_compositions``; rows are indexed by C^{k+1}, as (column,
    coefficient) pairs like coboundary_matrix's.  Dual to T - 1 the
    differential of one factor is 0, dual to the norm it is a, so e_s goes
    to the sum over the i with s_i odd of (-1)^(s_1+..+s_{i-1}) a_i
    e_{s+e_i}.  Returns (rows, number of columns)."""
    factors = [a for a in factors if a > 1]
    cols = _compositions(k, len(factors))
    index = {s: j for j, s in enumerate(cols)}
    rows = []
    for t in _compositions(k + 1, len(factors)):
        row, sign = [], 1
        for i, (ti, a) in enumerate(zip(t, factors)):
            if ti and ti % 2 == 0:  # t = s + e_i with s_i odd
                row.append((index[t[:i] + (ti - 1,) + t[i + 1:]], sign * a))
            if ti % 2:
                sign = -sign
        rows.append(tuple(row))
    return tuple(rows), len(cols)


def cohomology_rank(group: FiniteAbelianGroup, modulus: int, degree: int):
    """Invariant factors of H^degree(group, Z/modulus), trivial action.

    Read off the small complex of _resolution_differential, whose degree-k
    term has C(k+r-1, r-1) coordinates for r nontrivial factors.  That
    integer complex splits into pieces Z and Z --(x d)--> Z, so it is
    tensored with Z/p^e piece by piece: each pivot p^a of d_k or d_{k-1}
    under elimination mod p^e adds Z/p^a, every other coordinate of C^k
    adds Z/p^e.  Returned ascending, factors equal to 1 omitted.

    For r factors above 1, check_work gets n^j >= C(n, r), n = k + 1 + r,
    j = min(r, k + 1): the coordinates up to degree k + 1, k + 2 for one
    factor.  Then the larger of the rows times the columns of d_k, the
    most entries one elimination per prime power of the modulus holds and
    scans in a pass, and r C(k + r, r - 1), the rows of d_k listed as
    r-tuples.  No group element is listed.
    """
    if degree < 0:
        raise ValueError(f"cohomology degree must be >= 0, got {degree}")
    if modulus < 1:
        raise ValueError(f"coefficient modulus must be >= 1, got {modulus}")
    r = sum(a > 1 for a in group.factors)
    n = degree + 1 + r
    check_work("small complex", n, min(r, degree + 1))
    if r:  # each binomial is at most C(n, r) <= n^j, so quick to form
        rows = math.comb(n - 1, r - 1)
        check_work("elimination", rows * math.comb(n - 2, r - 1),
                   least=r * rows)
    d_k, N = _resolution_differential(group.factors, degree)
    mats = [d_k]
    if degree > 0:
        mats.append(_resolution_differential(group.factors, degree - 1)[0])
    primary = []  # per prime p, the exponents a of its factors Z/p^a
    for p, e in prime_powers(modulus):
        vals = [a for M in mats
                for _, _, a in _eliminate(M, p, e)[1]]
        exps = [a for a in vals if a] + [e] * (N - len(vals))
        primary.append((p, sorted(exps, reverse=True)))
    # the i-th largest invariant factor gathers the i-th largest p-parts
    size = max((len(exps) for _, exps in primary), default=0)
    return [math.prod(p ** exps[i] for p, exps in primary if i < len(exps))
            for i in reversed(range(size))]


def _is_coboundary(group: FiniteAbelianGroup, values, m: int) -> bool:
    """Whether the 2-cochain ``values``, reduced mod m, is df for a
    1-cochain f.

    If so, f(0) = b(0, 0) and f(g + e_i) = f(g) + f(e_i) - b(g, e_i), so a
    walk, a coordinate at a time, gives f from x_i = f(e_i); the sum of b
    over the pairs (t e_i, e_i) is a_i x_i.  Two solutions x_i differ by a
    homomorphism, whose df is 0, so any one serves; b = df is then checked
    by _differential."""
    n = group.size
    f = [values[0] % m]
    for a in [a for a in reversed(group.factors) if a > 1]:
        s = len(f)  # e_i sits at index s, t e_i at t * s
        y = sum(values[t * s * n + s] for t in range(a))
        g = math.gcd(a, m)
        if y % g:
            return False
        x = y // g * pow(a // g, -1, m // g)
        for r in range(s, a * s):
            f.append((f[r - s] + x - values[(r - s) * n + s]) % m)
    return [v % m for v in _differential(group, 1, f)] == list(values)


def cocycles_cohomologous(c1: Cochain, c2: Cochain) -> bool:
    """Whether c1 - c2 is a coboundary; in degree 2 by _is_coboundary."""
    b, k = (c1 - c2).values, c1.degree - 1
    if k < 0:
        return not any(b)
    if k == 1:
        return _is_coboundary(c1.group, b, c1.modulus)
    return solve_mod(coboundary_matrix(c1.group, k), b, c1.modulus,
                     c1.group.size ** k) is not None


# ---------------------------------------------------------------------------
# the box product representative and the Cech identity for the root cover

def cup_product_boxtimes(n: int) -> Cochain:
    """Degree-2 cochain ((b1,b2),(b1',b2')) -> b1*b2' on Z/n x Z/n.

    The first factor is mu_n written additively.  This is the cup product
    of the two coordinate characters and is a 2-cocycle for every n.  Its
    n^4 values are checked against TABLE_GUARD before they are built.
    """
    check_work("cochain table", n * n, 2)
    G = FiniteAbelianGroup((n, n))
    # ((g0, g1), (h0, h1)) sits at ((g0 n + g1) n + h0) n + h1, so the
    # block of g0 is g0 * h1 over h1, once for each (g1, h0)
    return Cochain._raw(G, 2, n,
                        [v for g0 in range(n)
                         for v in [g0 * h1 % n for h1 in range(n)] * (n * n)])


class FormalUnit:
    """pi^(pi_steps/n) * zeta^zeta_exponent with zeta_exponent mod n.

    The pi-exponent is held as an integer count of 1/n steps, so products
    and inverses are integer additions and every exponent lies in (1/n)Z.
    """

    __slots__ = ("pi_steps", "zeta_exponent", "n")

    def __init__(self, pi_steps: int, zeta_exponent: int, n: int):
        if not isinstance(pi_steps, int):
            raise TypeError("pi_steps must be an int count of 1/n steps, "
                            f"got {type(pi_steps).__name__}")
        self.pi_steps = pi_steps
        self.zeta_exponent = zeta_exponent % n
        self.n = n

    @property
    def pi_exponent(self):
        """pi_steps/n as a Fraction in lowest terms."""
        from fractions import Fraction  # not loaded by importing the package
        return Fraction(self.pi_steps, self.n)

    def __mul__(self, other: "FormalUnit") -> "FormalUnit":
        if self.n != other.n:
            raise ValueError("formal units for different n")
        return FormalUnit(self.pi_steps + other.pi_steps,
                          self.zeta_exponent + other.zeta_exponent, self.n)

    def inverse(self) -> "FormalUnit":
        return FormalUnit(-self.pi_steps, -self.zeta_exponent, self.n)

    def __eq__(self, other):
        if not isinstance(other, FormalUnit):
            return NotImplemented
        return (self.pi_steps == other.pi_steps
                and self.zeta_exponent == other.zeta_exponent
                and self.n == other.n)

    def __hash__(self):
        return hash((self.pi_steps, self.zeta_exponent, self.n))

    def __repr__(self):
        return f"pi^({self.pi_exponent})*zeta^{self.zeta_exponent}"


def epsilon_cocycle(n: int, power: int = 1):
    """Table (b, b') -> 1 or pi^-1 (pi^-power for the power-th tensor)."""
    one = FormalUnit(0, 0, n)
    drop = FormalUnit(-power * n, 0, n)
    return {(b, b2): (drop if b + b2 >= n else one)
            for b in range(n) for b2 in range(n)}


def verify_coboundary_identity(n: int, power: int = 1) -> bool:
    """Check d(pi^(power*b/n)) = epsilon^-1 * zeta^(power*beta*b') exactly.

    The Cech coboundary of the 1-cochain indexed by (beta, b) is evaluated
    with the torsor translation: restricting the second index along the
    first multiplies the n-th root of pi by zeta^beta, so the translated
    cochain carries zeta^(power*beta*b'), which the identity's own factor
    cancels for every beta.  The walk is over the n^2 pairs (b, b'), and
    n^2 > TABLE_GUARD raises TableSizeError before the walk.
    """
    return _epsilon_checked(n, power)[1]


def _epsilon_checked(n: int, power: int = 1):
    """(epsilon_cocycle(n, power), whether verify_coboundary_identity holds
    on that table): the CLI prints the table the check walked."""
    check_work("coboundary check", n, 2)
    eps = epsilon_cocycle(n, power)
    # each side is the (pi_steps, zeta_exponent) pair of a FormalUnit; pairs
    # multiply as in FormalUnit.__mul__.  The cochain reads b and the
    # translation beta, so the identity c_{g+g'}^-1 c_g eps = (c_{g'}
    # translated by g)^-1 zeta^(power*beta*b') is independent of beta', and
    # its right side is (-power*b', 0) for every beta
    for b2 in range(n):
        target = (-power * b2, 0)
        for b in range(n):
            u = eps[b, b2]
            d = (power * (b - (b + b2) % n) + u.pi_steps, u.zeta_exponent % n)
            if d != target:
                return eps, False
    return eps, True


# ---------------------------------------------------------------------------
# the low-degree edge map for the projection mu_n x Z/n -> Z/n

def identity_character(n: int) -> Cochain:
    """The identity homomorphism Z/n -> Z/n as a 1-cochain."""
    return Cochain(FiniteAbelianGroup((n,)), 1, n, range(n))


def lhs_edge_map(c: Cochain) -> Cochain:
    """Edge-map value of a 2-cochain on mu_n x Z/n killed on the fiber.

    The restriction of c to the mu_n factor must be a coboundary, which
    _is_coboundary's walk checks; the pairing
    b -> (beta -> c((beta,0),(0,b)) - c((0,b),(beta,0))) is then read off
    c as a homomorphism mu_n -> Z/n, i.e. an element of Z/n.  Returns a
    1-cochain on Z/n.
    """
    G = c.group
    if len(G.factors) != 2 or G.factors[0] != G.factors[1]:
        raise ValueError("expected a 2-cochain on Z/n x Z/n")
    if c.degree != 2:
        raise ValueError("expected a degree-2 cochain")
    n = G.factors[0]
    m = c.modulus
    Zn = FiniteAbelianGroup((n,))
    # (x, y) sits at x n + y and the pair (g, h) at g's position times n^2
    # plus h's, so ((x,0),(y,0)) at x n^3 + y n, ((beta,0),(0,b)) at
    # beta n^3 + b and ((0,b),(beta,0)) at b n^2 + beta n
    v, n2, n3 = c.values, n * n, n ** 3

    # d(phi) = c restricted to the mu_n x mu_n face must have a solution
    b = [y for x in range(0, n * n3, n3) for y in v[x:x + n2:n]]
    if not _is_coboundary(Zn, b, m):
        raise ValueError("class does not vanish on fiber")

    # G is abelian, so df(g,h) = df(h,g) for every 1-cochain f: c and c
    # corrected by d(lift of phi) have the same pairing, read here off c
    out = []
    for bb in range(n):
        pairing = [(x - y) % m for x, y in zip(v[bb::n3],
                                               v[bb * n2:(bb + 1) * n2:n])]
        # the pairing is linear in beta; its value is the slope at 1
        base = pairing[0]
        out.append(slope := (pairing[1 % n] - base) % m)
        if any(p != (beta * slope + base) % m
               for beta, p in enumerate(pairing)):
            raise ValueError("fiber pairing is not a character")
    return Cochain._raw(Zn, 1, m, out)


# ---------------------------------------------------------------------------
# the monomial-matrix central extension and its factor set

def extension_factor_set(n: int, q: int) -> Cochain:
    """Factor set of the scalar extension of mu_n x Z/n inside GL_n(F_q).

    Gamma is generated by zeta*I, D = diag(1, zeta, ..., zeta^(n-1)) and
    the n-cycle C, so its n^3 elements are zeta^a D^beta C^b.  Each is
    monomial, held as (cols, entries): row i has the field key entries[i]
    in column cols[i].  It projects to (beta, b), the ratio of its first
    two entries and the column of the entry in the first row, and the
    section is S_(beta,b) = D^beta C^b, the preimage with row-0 entry 1.
    Its factor set lands in the central scalars, S_g S_h = lambda(g,h)
    S_{g+h}, and lambda is read as the ratio of the row-0 entry of S_g S_h
    to that of S_{g+h}.  It is returned additively, as a 2-cochain on
    Z/n x Z/n with values in Z/n.  Its class is that of
    ((beta,b),(beta',b')) -> beta'*b, the negative of the box product.
    Its n^4 values are checked against TABLE_GUARD before S is built.
    """
    F = FiniteField(q) if isinstance(q, int) else q
    if (F.order - 1) % n != 0:
        raise ValueError(f"n={n} must divide q-1={F.order - 1}")
    check_work("factor set", n, 4)
    G = FiniteAbelianGroup((n, n))
    zeta = F.zeta(n)

    def mul(A, B):
        # row i of A*B is row cols[i] of B scaled by entries[i]
        (cols, entries), (b_cols, b_entries) = A, B
        return (tuple(b_cols[c] for c in cols),
                tuple(F._kmul(e, b_entries[c]) for c, e in zip(cols, entries)))

    ident = tuple(range(n))
    D = (ident, tuple(F._kpow(zeta.key(), i) for i in range(n)))
    C = (tuple((i + 1) % n for i in range(n)), (1,) * n)
    D_pows, C_pows = [(ident, (1,) * n)], [(ident, (1,) * n)]
    for _ in range(n - 1):
        D_pows.append(mul(D_pows[-1], D))
        C_pows.append(mul(C_pows[-1], C))
    # S_g at g's position beta n + b in G
    section = [mul(D_pows[beta], C_pows[b])
               for beta in range(n) for b in range(n)]

    # D's entries are the keys of zeta^0, ..., zeta^(n-1): their logs
    log = {k: i for i, k in enumerate(D[1])}
    inv0 = [F._kinv(entries[0]) for _, entries in section]

    # the pairs (g, h) in tuple-product order, g = (beta, b) at beta n + b;
    # row 0 of S_g S_h is row cols_g[0] of S_h scaled by entries_g[0]
    pairs, kmul, values = [divmod(g, n) for g in range(n * n)], F._kmul, []
    try:
        for (beta, b), (cols_g, entries_g) in zip(pairs, section):
            col, scale = cols_g[0], entries_g[0]
            for (beta2, b2), (_, entries_h) in zip(pairs, section):
                entry = kmul(scale, entries_h[col])
                gh = (beta + beta2) % n * n + (b + b2) % n
                values.append(log[kmul(entry, inv0[gh])])
    except KeyError:
        raise ValueError("element is not a power of zeta") from None
    return Cochain._raw(G, 2, n, values)
