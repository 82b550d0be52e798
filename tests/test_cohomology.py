import functools
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from brauer import FiniteField, cli, cohomology
from brauer.finitefield import prime_powers
from brauer.cohomology import (
    Cochain,
    FiniteAbelianGroup,
    FormalUnit,
    coboundary,
    coboundary_matrix,
    cocycles_cohomologous,
    cohomology_rank,
    cup_product_boxtimes,
    epsilon_cocycle,
    extension_factor_set,
    identity_character,
    is_cocycle,
    lhs_edge_map,
    verify_coboundary_identity,
)
from brauer.snf import _eliminate, smith_normal_form, solve_mod


def _face_coboundary(c):
    """The values of the inhomogeneous differential straight from the face
    formula, unreduced, an oracle independent of coboundary_matrix; it
    lists no group."""
    G, k = c.group, c.degree
    out = []
    elements = itertools.product(*map(range, G.factors))
    for key in itertools.product(list(elements), repeat=k + 1):
        v = c(*key[1:])
        sign = -1
        for i in range(k):
            merged = key[:i] + (G.add(key[i], key[i + 1]),) + key[i + 2:]
            v += sign * c(*merged)
            sign = -sign
        v += sign * c(*key[:k])
        out.append(v)
    return out


def _dense(rows, cols):
    """The dense matrix of coboundary_matrix's pair rows."""
    M = [[0] * cols for _ in rows]
    for dense_row, row in zip(M, rows):
        for j, a in row:
            dense_row[j] += a
    return M


def test_group_structure():
    G = FiniteAbelianGroup((2, 3))
    assert len(G.elements()) == 6
    assert G.add((1, 2), (1, 2)) == (0, 1)


def test_group_index_is_tuple_product_order():
    G = FiniteAbelianGroup((2, 3))
    assert [G.index[g] for g in G.elements()] == list(range(6))
    assert G.elements()[G.index[(1, 2)]] == (1, 2)


def test_constructions_share_one_group_per_factor_tuple(monkeypatch):
    built = []
    init = FiniteAbelianGroup.__init__
    monkeypatch.setattr(FiniteAbelianGroup, "__init__", lambda self, factors:
                        built.append(tuple(factors)) or init(self, factors))
    cohomology._group.cache_clear()
    for n in (3, 5):
        box = cup_product_boxtimes(n)
        assert lhs_edge_map(box) == identity_character(n)
        assert box.group is extension_factor_set(n, 31).group
        assert cup_product_boxtimes(n).group is box.group
        for argv in (["cohomology", "gamma", "--n", str(n), "--q", "31"],
                     ["cohomology", "edge", "--n", str(n)]):
            assert cli.main(argv) == 0
    assert sorted(built) == [(3,), (3, 3), (5,), (5, 5)]
    # the public constructor stays plain
    assert FiniteAbelianGroup((5, 5)) is not box.group


def test_cochain_values_contract():
    G = FiniteAbelianGroup((2, 3))
    c = Cochain(G, 1, 4, [5, -1, 2, 3, 4, 9])
    assert c.values == (1, 3, 2, 3, 0, 1)  # reduced mod 4
    assert c((1, 0)) == c([1, 0]) == 3
    assert Cochain(G, 1, 4, lambda g: 5 * g[0] - g[1]) == Cochain(
        G, 1, 4, [0, 3, 2, 1, 0, 3])
    assert Cochain(G, 0, 4, [6]).values == (2,)
    assert Cochain(G, 2, 4).values == (0,) * 36
    for values in ([0] * 5, [0] * 7, [0] * 36, []):
        with pytest.raises(ValueError, match="6 values"):
            Cochain(G, 1, 4, values)
    with pytest.raises(TypeError, match="not a dict"):
        Cochain(G, 1, 4, {(g,): 0 for g in G.elements()})
    # a modulus below 1 is refused, not divided by or reduced into
    # negative values
    for modulus, values in ((0, None), (-3, [1, 2, 3, 4, 5, 6]),
                            (0, lambda g: 1)):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            Cochain(G, 1, modulus, values)
    for args in (((2, 0),), ((0, 3),), ((0,),), ((0, 0), (0, 0)), ()):
        with pytest.raises(KeyError):
            c(*args)


def test_d_squared_is_zero(rng):
    for factors in ((1,), (1, 3), (2,), (2, 2), (4,), (2, 3)):
        G = FiniteAbelianGroup(factors)
        for k in (0, 1, 2, 3):
            c = Cochain.random(G, k, 6, rng)
            assert coboundary(coboundary(c)).is_zero()


def test_coboundary_matrix_rows_are_sparse_and_square_to_zero():
    for factors in ((2,), (2, 2), (4,), (2, 3)):
        G = FiniteAbelianGroup(factors)
        for k in (0, 1, 2, 3):
            rows = coboundary_matrix(G, k)
            assert len(rows) == G.size ** (k + 1)
            for row in rows:
                assert len(row) <= k + 2
                assert len({j for j, _ in row}) == len(row)
                assert all(0 <= j < G.size ** k and a for j, a in row)
        for k in (0, 1, 2):
            # each row of d_{k+1} . d_k, a combination of rows of d_k, is 0
            lower = coboundary_matrix(G, k)
            for row in coboundary_matrix(G, k + 1):
                acc = {}
                for j, a in row:
                    for c, b in lower[j]:
                        acc[c] = acc.get(c, 0) + a * b
                assert not any(acc.values()), (factors, k)


def test_coboundary_matches_face_formula(rng):
    # the trivial group reads one entry a face, as Z/1 does
    for factors in ((1,), (1, 3), (2,), (3,), (2, 2), (2, 3), (4,)):
        G = FiniteAbelianGroup(factors)
        for k in (0, 1, 2, 3):
            for m in (4, 6):
                c = Cochain.random(G, k, m, rng)
                d = coboundary(c)
                assert d == Cochain(G, k + 1, m, _face_coboundary(c)), (
                    factors, k)
                # the pair rows are the merge of the same faces
                rows = coboundary_matrix(G, k)
                assert d == Cochain(G, k + 1, m, [
                    sum(a * c.values[j] for j, a in row) for row in rows])


def test_closed_form_tables_match_their_definitions(rng):
    # the box product and the identity character are built in closed form;
    # here they are built through their defining callables
    for n in range(1, 8):
        G, Zn = FiniteAbelianGroup((n, n)), FiniteAbelianGroup((n,))
        assert cup_product_boxtimes(n) == Cochain(G, 2, n,
                                                  lambda g, h: g[0] * h[1])
        assert identity_character(n) == Cochain(Zn, 1, n, lambda g: g[0])
    # lhs_edge_map still refuses a class that does not vanish on the fiber
    # (the carry cocycle on mu_n generates H^2(Z/n, Z/n)) and a pairing
    # beta^2 b that is not a character, shifted by a coboundary or not
    for n in (2, 3, 5):
        G = FiniteAbelianGroup((n, n))
        carry = Cochain(G, 2, n, lambda g, h: int(g[0] + h[0] >= n))
        shift = coboundary(Cochain.random(G, 1, n, rng))
        for c in (carry, carry + cup_product_boxtimes(n) + shift):
            with pytest.raises(ValueError, match="does not vanish"):
                lhs_edge_map(c)
        if n > 2:  # beta^2 = beta on Z/2
            square = Cochain(G, 2, n, lambda g, h: g[0] ** 2 * h[1])
            for c in (square, square + shift):
                with pytest.raises(ValueError, match="not a character"):
                    lhs_edge_map(c)


def test_coboundary_matrix_is_cached_and_left_unchanged():
    G = FiniteAbelianGroup((2, 3))
    rows = coboundary_matrix(G, 1)
    snapshot = [list(row) for row in rows]
    _eliminate(rows, 2, 1)
    solve_mod(rows, [1] * len(rows), 6, G.size)
    assert coboundary_matrix(G, 1) is rows
    assert coboundary_matrix(FiniteAbelianGroup((2, 3)), 1) is rows
    assert [list(row) for row in rows] == snapshot
    assert coboundary_matrix.cache_info().maxsize is not None
    assert cohomology._faces.cache_info().maxsize is not None


def test_degree_two_checks_eliminate_no_matrix(monkeypatch, capsys):
    # gamma's two checks, the edge map's fiber check and degree-2
    # cohomologous-ness walk the generators: neither eliminator is called
    def refuse(*args):
        raise AssertionError("a degree-2 check eliminated a matrix")

    monkeypatch.setattr(cohomology, "_eliminate", refuse)
    monkeypatch.setattr(cohomology, "solve_mod", refuse)
    for sub, extra in (("gamma", ["--q", "7"]), ("edge", [])):
        argv = ["cohomology", sub, "--n", "6", *extra, "--format", "json"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True
    assert lhs_edge_map(cup_product_boxtimes(4)) == identity_character(4)
    G = FiniteAbelianGroup((2, 3))
    c = Cochain.random(G, 2, 6, random.Random(5))
    shift = coboundary(Cochain.random(G, 1, 6, random.Random(6)))
    assert cocycles_cohomologous(c, c + shift)
    assert cocycles_cohomologous(c + shift, c)
    assert not cocycles_cohomologous(c, c + Cochain(G, 2, 6, [1] + [0] * 35))


def test_coboundaries_are_cocycles(rng):
    G = FiniteAbelianGroup((3, 3))
    for k in (1, 2):
        c = Cochain.random(G, k - 1, 9, rng)
        assert is_cocycle(coboundary(c))


def test_cohomology_ranks_klein_four():
    G = FiniteAbelianGroup((2, 2))
    assert cohomology_rank(G, 2, 2) == [2, 2, 2]


def test_cohomology_ranks_cyclic():
    for n in (2, 3, 4, 6):
        G = FiniteAbelianGroup((n,))
        assert cohomology_rank(G, n, 1) == [n]
        assert cohomology_rank(G, n, 2) == [n]


def test_cohomology_rank_degree_zero():
    G = FiniteAbelianGroup((4,))
    assert cohomology_rank(G, 6, 0) == [6]


def test_cohomology_rank_rejects_bad_input():
    G = FiniteAbelianGroup((2,))
    with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
        cohomology_rank(G, 2, -1)
    for m in (0, -2):
        with pytest.raises(ValueError, match="modulus"):
            cohomology_rank(G, m, 2)


def _invariant_factors(orders):
    """Ascending invariant factors (> 1) of the product of the Z/d."""
    parts = {}  # prime -> its prime-power parts
    for d in orders:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            if q > 1:
                parts.setdefault(p, []).append(q)
            p += 1
    for qs in parts.values():
        qs.sort(reverse=True)
    size = max(map(len, parts.values()), default=0)
    return sorted(math.prod(qs[i] for qs in parts.values() if i < len(qs))
                  for i in range(size))


# the benchmark's rank grid: |G|^(k+1) <= 256, k >= 1
def _grid(groups):
    for factors in groups:
        size = math.prod(factors)
        for k in range(1, 8):
            if size ** (k + 1) <= 256:
                yield factors, k


def test_cohomology_rank_closed_form_cyclic():
    # H^k(Z/n, Z/m) = Z/gcd(n, m) for k >= 1
    for (n,), k in _grid([(2,), (3,), (4,), (5,), (6,)]):
        for m in (2, 3, 4, 5, 6):
            want = _invariant_factors([math.gcd(n, m)])
            assert cohomology_rank(FiniteAbelianGroup((n,)), m, k) == want


def test_cohomology_rank_closed_form_products_squarefree_m():
    # F_p-Kuenneth: dim H^k(G, F_p) = C(k+s-1, s-1) with s the number of
    # factors divisible by p; Z/m for squarefree m is the sum over p | m
    for factors, k in _grid([(2, 2), (2, 3), (3, 3)]):
        for m in (2, 3, 5, 6, 10, 30):
            orders = []
            for p in (2, 3, 5):
                s = sum(f % p == 0 for f in factors)
                if m % p == 0 and s:
                    orders += [p] * math.comb(k + s - 1, s - 1)
            got = cohomology_rank(FiniteAbelianGroup(factors), m, k)
            assert got == _invariant_factors(orders), (factors, m, k)


def test_cohomology_rank_matches_integer_elementary_divisors():
    # the complex splits into Z and Z --(x d)--> Z; a piece Z -> Z gives
    # Z/gcd(d, m) at both ends, a piece Z gives Z/m.  Z/4 x Z/4 stops at
    # k = 1: integer SNF with U/V tracking of its 4096 x 256 d_2 is too slow
    for factors, ms, top in (((2, 4), (4, 8), 2), ((4, 4), (4,), 1)):
        G = FiniteAbelianGroup(factors)
        for k in range(top + 1):
            divisors = []
            for j in (k, k - 1):
                if j < 0:
                    continue
                D, _, _ = smith_normal_form(
                    _dense(coboundary_matrix(G, j), G.size ** j))
                divisors += [D[i][i] for i in range(min(len(D), len(D[0])))
                             if D[i][i]]
            for m in ms:
                orders = ([math.gcd(d, m) for d in divisors]
                          + [m] * (G.size ** k - len(divisors)))
                assert cohomology_rank(G, m, k) == _invariant_factors(orders)


@functools.lru_cache(maxsize=None)
def _bar_pivots(group, j, p, e):
    """Pivot valuations of the bar differential d_j under elimination mod
    p^e, kept across the grid: d_{k-1} serves degrees k - 1 and k."""
    return tuple(a for _, _, a in
                 _eliminate(coboundary_matrix(group, j), p, e)[1])


def _bar_rank(group, modulus, degree):
    """Invariant factors of H^degree(group, Z/modulus) eliminated on the
    bar complex, |G|^k coordinates in degree k: each pivot p^a of d_k or
    d_{k-1} mod p^e adds Z/p^a, every other coordinate of C^k adds Z/p^e."""
    N = group.size ** degree
    primary = []
    for p, e in prime_powers(modulus):
        vals = [a for j in (degree, degree - 1) if j >= 0
                for a in _bar_pivots(group, j, p, e)]
        exps = [a for a in vals if a] + [e] * (N - len(vals))
        primary.append((p, sorted(exps, reverse=True)))
    size = max((len(exps) for _, exps in primary), default=0)
    return [math.prod(p ** exps[i] for p, exps in primary if i < len(exps))
            for i in reversed(range(size))]


def _kunneth(H, K, top):
    """Integral homology of a product in degrees <= top, from each factor's
    as (free rank, torsion orders): the tensor terms in degree i + j and
    the Tor terms in degree i + j + 1."""
    out = [(0, []) for _ in range(top + 1)]
    for (i, (r, t)), (j, (s, u)) in itertools.product(enumerate(H),
                                                      enumerate(K)):
        if i + j <= top:
            rank, tors = out[i + j]
            tors += t * s + u * r + [math.gcd(x, y) for x in t for y in u]
            out[i + j] = (rank + r * s, tors)
        if i + j + 1 <= top:
            out[i + j + 1][1].extend(math.gcd(x, y) for x in t for y in u)
    return out


def _closed_form_rank(factors, modulus, degree):
    """H^degree(G, Z/m) in ints only: H_i(Z/a, Z) is Z, Z/a, 0, Z/a, 0, ...,
    Kuenneth with its Tor term for the product, then the universal
    coefficient theorem, Hom(H_k, Z/m) + Ext(H_{k-1}, Z/m)."""
    H = [(1, [])] + [(0, [])] * degree  # the trivial group
    for a in factors:
        H = _kunneth(H, [(1, [])] + [(0, [a] if i % 2 else [])
                                     for i in range(1, degree + 1)], degree)
    rank, tors = H[degree]
    below = H[degree - 1][1] if degree else []
    return _invariant_factors([modulus] * rank + [math.gcd(t, modulus)
                                                  for t in tors + below])


def test_closed_form_rank_known_values():
    assert _closed_form_rank((2, 2), 2, 2) == [2, 2, 2]
    assert _closed_form_rank((4,), 6, 0) == [6]
    assert _closed_form_rank((2, 4), 8, 1) == [2, 4]
    # H_2(Z/2 x Z/4) = Z/2 and H_3 = Z/2 + Z/4 + Z/2, the last from Tor,
    # so H^3(G, Z/4) = Hom(H_3, Z/4) + Ext(H_2, Z/4) = (Z/2)^3 + Z/4
    assert _closed_form_rank((2, 4), 4, 3) == [2, 2, 2, 4]
    assert _closed_form_rank((3,), 2, 5) == []


def test_resolution_differential_is_small_and_squares_to_zero():
    for factors in ((2,), (4,), (2, 4), (1, 6), (2, 2, 2), (3, 4, 5)):
        r = sum(a > 1 for a in factors)
        for k in range(5):
            rows, cols = cohomology._resolution_differential(factors, k)
            assert cols == math.comb(k + r - 1, r - 1)
            assert len(rows) == math.comb(k + r, r - 1)
            assert all(len(row) <= r and all(0 <= j < cols and a
                                              for j, a in row)
                       for row in rows)
            upper, _ = cohomology._resolution_differential(factors, k + 1)
            for row in upper:
                acc = {}
                for j, a in row:
                    for c, b in rows[j]:
                        acc[c] = acc.get(c, 0) + a * b
                assert not any(acc.values()), (factors, k)
    # the trivial group: Z in degree 0, nothing above
    assert cohomology._resolution_differential((1, 1), 0) == ((), 1)
    assert cohomology._resolution_differential((), 2) == ((), 0)


def _recursive_compositions(k, r):
    """The listing _compositions replaced: one recursion level per part."""
    if r == 0:
        return [()] if k == 0 else []
    return [(j,) + rest for j in range(k + 1)
            for rest in _recursive_compositions(k - j, r - 1)]


def test_compositions_match_the_recursive_listing():
    for k in range(9):
        for r in range(7):
            assert (cohomology._compositions(k, r)
                    == _recursive_compositions(k, r)), (k, r)


def test_cohomology_rank_at_degree_zero_with_many_factors():
    # the recursive listing overflowed the stack from 497 factors; the
    # rows of d_0 are r tuples of r entries, so 1000 factors is the last
    # answered
    for r in (497, 1000):
        G = FiniteAbelianGroup((2,) * r)
        assert cohomology_rank(G, 2, 0) == _closed_form_rank((2,) * r, 2, 0)
    with pytest.raises(cohomology.TableSizeError,
                       match="elimination of 1002001 entries"):
        cohomology_rank(FiniteAbelianGroup((2,) * 1001), 2, 0)


def test_cohomology_rank_three_oracles_agree():
    # the small complex, the closed form and the bar complex.  The bar
    # oracle runs wherever d_k has at most 512 rows.  Where it has 4096
    # (Z/8, Z/2 x Z/4 and (Z/2)^3 at k = 3, Z/4 x Z/4 at k = 2) one
    # elimination takes 0.2-0.7 s per prime power, so it runs once: mod 8
    # on Z/2 x Z/4 at k = 3, where -2 != 2 and the Koszul signs count.
    # Z/4 x Z/4 at k = 3 (65536 rows) would take 289 s
    for factors in ((4,), (8,), (2, 4), (4, 4), (2, 2, 2)):
        G = FiniteAbelianGroup(factors)
        for k in range(4):
            for m in range(1, 13):
                want = _closed_form_rank(factors, m, k)
                assert cohomology_rank(G, m, k) == want, (factors, m, k)
                if (G.size ** (k + 1) <= 512
                        or (factors, k, m) == ((2, 4), 3, 8)):
                    assert _bar_rank(G, m, k) == want, (factors, m, k)


def test_cohomology_rank_builds_no_bar_matrix():
    # rank reads the small complex only: the coboundary_matrix cache is
    # neither filled nor evicted
    coboundary_matrix.cache_clear()
    assert cohomology_rank(FiniteAbelianGroup((10,)), 10, 3) == [10]
    assert cohomology_rank(FiniteAbelianGroup((4, 4)), 4, 3) == [4] * 4
    # the trivial group passes the size guard at any degree
    assert cohomology_rank(FiniteAbelianGroup((1,)), 2, 10 ** 9) == []
    # inputs whose bar tables are past the guard but whose small complexes
    # are within it answer, and list no group element
    for factors, m, k in (((2, 2), 2, 30), ((2, 2, 2), 2, 6),
                          ((100000, 100000), 2, 1), ((1000, 1000), 2, 2)):
        G = FiniteAbelianGroup(factors)
        assert cohomology_rank(G, m, k) == _closed_form_rank(factors, m, k)
        assert G._elements is None
    assert coboundary_matrix.cache_info().currsize == 0
    with pytest.raises(cohomology.TableSizeError):
        cohomology_rank(FiniteAbelianGroup((2,)), 2, 10 ** 9)
    # the last degree within the guard for r = 2, 3, 4 factors answers in
    # bounded time, mod 2 and mod 2^20, where 19 passes find no pivot; one
    # degree more is refused.  With every factor a | m, H^k is
    # (Z/a)^C(k+r-1, r-1)
    for r, k in ((2, 997), (3, 42), (4, 15)):
        for a, m in ((2, 2), (2 ** 19, 2 ** 20)):
            G = FiniteAbelianGroup((a,) * r)
            start = time.perf_counter()
            assert cohomology_rank(G, m, k) == [a] * math.comb(k + r - 1,
                                                               r - 1)
            assert time.perf_counter() - start < 3, (r, k, m)
            with pytest.raises(cohomology.TableSizeError):
                cohomology_rank(G, m, k + 1)
    assert (cohomology_rank(FiniteAbelianGroup((2, 4, 8, 16)), 2 ** 20, 15)
            == _closed_form_rank((2, 4, 8, 16), 2 ** 20, 15))
    # d_43 of (Z/2)^3 has C(45, 2) rows and C(44, 2) columns
    with pytest.raises(cohomology.TableSizeError,
                       match="elimination of 1024650 entries"):
        cohomology_rank(FiniteAbelianGroup((2, 2, 2)), 4, 43)


def test_trivial_group_degree_guard():
    # |G|^k is 1 for the trivial group, so the degree alone is bounded:
    # neither the k + 2 faces of the one row nor a 10^9-tuple is built
    T = FiniteAbelianGroup((1,))
    for build in (lambda: coboundary_matrix(T, 10 ** 9),
                  lambda: Cochain(T, 10 ** 9, 2, lambda *args: 0),
                  lambda: Cochain(T, 10 ** 9, 2)):
        start = time.perf_counter()
        with pytest.raises(cohomology.TableSizeError):
            build()
        assert time.perf_counter() - start < 1
    # below the bound it still answers
    assert coboundary_matrix(T, 3) == (((0, 1),),)
    assert Cochain(T, 3, 2, lambda *args: 1).values == (1,)


def test_boxtimes_is_cocycle():
    for n in (2, 3, 4, 5):
        assert is_cocycle(cup_product_boxtimes(n))


def test_boxtimes_not_a_coboundary():
    for n in (2, 3):
        c = cup_product_boxtimes(n)
        zero = Cochain(c.group, 2, n, lambda *args: 0)
        assert cocycles_cohomologous(c, c)
        assert not cocycles_cohomologous(c, zero)


def test_cocycles_cohomologous_detects_shift(rng):
    c = cup_product_boxtimes(3)
    shift = coboundary(Cochain.random(c.group, 1, 3, rng))
    assert cocycles_cohomologous(c, c + shift)


def test_cohomologous_and_fiber_check_agree_with_solve_mod(rng):
    # the degree-2 walk against solve_mod, which eliminates afresh:
    # coboundaries, coboundaries plus the box product, coboundaries with
    # one entry changed (non-cocycles) and random cochains
    grid = [(factors, k)
            for factors in ((4,), (6,), (8,), (2, 4), (3, 3), (4, 4),
                            (2, 2, 2))
            for k in (1, 2, 3) if math.prod(factors) ** (k + 1) <= 4096]
    grid += [(factors, 2) for factors in ((1, 3), (2, 6), (6, 6), (1,), ())]
    answers = set()
    for factors, k in grid:
        G = FiniteAbelianGroup(factors)
        rows = coboundary_matrix(G, k - 1)
        for m in range(1, 13):
            d = coboundary(Cochain.random(G, k - 1, m, rng))
            changed = list(d.values)
            changed[rng.randrange(len(changed))] += 1
            cases = [d, Cochain(G, k, m, changed),
                     Cochain.random(G, k, m, rng)]
            if k == 2 and factors in ((3, 3), (4, 4), (6, 6)):
                box = cup_product_boxtimes(factors[0]).values
                cases.append(d + Cochain(G, 2, m, box))
            for c in cases:
                x = solve_mod(rows, c.values, m, G.size ** (k - 1))
                want = x is not None
                if want:  # the oracle's own answer, checked
                    assert coboundary(Cochain(G, k - 1, m, x)) == c
                got = cocycles_cohomologous(c, Cochain(G, k, m))
                assert got == want, (factors, k, m, c.values)
                answers.add((c is d, want))
    assert answers == {(True, True), (False, True), (False, False)}
    # lhs_edge_map's fiber check accepts exactly the cochains whose
    # restriction to the mu_n x mu_n face solve_mod solves
    verdicts = set()
    for n in (2, 3, 4, 5, 6):
        G, Zn = FiniteAbelianGroup((n, n)), FiniteAbelianGroup((n,))
        box = cup_product_boxtimes(n).values
        for m in range(1, 13):
            d = coboundary(Cochain.random(G, 1, m, rng))
            changed = list(d.values)
            x, y = rng.randrange(n), rng.randrange(n)
            changed[G.index[(x, 0)] * G.size + G.index[(y, 0)]] += 1
            for c in (d + Cochain(G, 2, m, box), Cochain(G, 2, m, changed),
                      Cochain(G, 2, m, lambda g, h: g[0] * h[0]),
                      Cochain.random(G, 2, m, rng)):
                face = [c((x, 0), (y, 0)) for x in range(n) for y in range(n)]
                want = solve_mod(coboundary_matrix(Zn, 1), face, m,
                                 n) is not None
                try:
                    lhs_edge_map(c)
                    accepted = True
                except ValueError as exc:
                    accepted = "vanish" not in str(exc)
                assert accepted == want, (n, m, c.values)
                verdicts.add(want)
    assert verdicts == {True, False}


def test_formal_unit_arithmetic():
    u = FormalUnit(1, 1, 2)
    v = u * u
    assert v.pi_exponent == 1
    assert v.zeta_exponent == 0
    assert (u * u.inverse()).pi_exponent == 0


def test_formal_unit_integer_steps():
    u = FormalUnit(1, 1, 2)
    assert u.pi_steps == 1
    assert u.pi_exponent == Fraction(1, 2)
    assert repr(u) == "pi^(1/2)*zeta^1"
    assert repr(FormalUnit(-2, 0, 2)) == "pi^(-1)*zeta^0"
    assert FormalUnit(3, -1, 2) == FormalUnit(3, 1, 2)
    for steps in (Fraction(1, 2), Fraction(2, 1), 0.5):
        with pytest.raises(TypeError):
            FormalUnit(steps, 1, 2)


def test_epsilon_cocycle_values():
    eps = epsilon_cocycle(2)
    assert eps[(1, 1)].pi_exponent == -1
    assert eps[(0, 1)].pi_exponent == 0
    assert eps[(1, 0)].pi_exponent == 0


def test_coboundary_identity():
    for n in range(2, 13):
        assert verify_coboundary_identity(n)
    for j in range(4):
        assert verify_coboundary_identity(4, power=j)


def _fraction_reference(n, power):
    """The epsilon table as Fraction pi-exponents, and whether the Cech
    coboundary of pi^(power*b/n) equals epsilon^-1 * zeta^(power*beta*b'),
    each side held as (Fraction pi-exponent, zeta-exponent mod n)."""
    eps = {(b, b2): Fraction(-power if b + b2 >= n else 0)
           for b in range(n) for b2 in range(n)}
    holds = True
    for beta, b, b2 in itertools.product(range(n), repeat=3):
        translation = power * beta * b2 % n
        d_value = (Fraction(power * b2, n) - Fraction(power * ((b + b2) % n), n)
                   + Fraction(power * b, n), translation)
        holds &= d_value == (-eps[b, b2], translation)
    return eps, holds


def test_coboundary_identity_matches_fraction_reference():
    for n in range(2, 9):
        for power in range(n):
            eps, holds = _fraction_reference(n, power)
            table = epsilon_cocycle(n, power)
            assert {k: u.pi_exponent for k, u in table.items()} == eps
            assert all(u.zeta_exponent == 0 for u in table.values())
            assert verify_coboundary_identity(n, power) == holds


def _epsilon_n3_walk(n, power):
    """The coboundary identity at every triple (beta, b, b'), each side held
    as (pi_steps, zeta exponent mod n): the n^3 walk that
    verify_coboundary_identity shortens to the n^2 pairs, since the
    translation's zeta^(power*beta*b') cancels for every beta."""
    eps = cohomology.epsilon_cocycle(n, power)
    for b2 in range(n):
        for b in range(n):
            e = eps[b, b2]
            # c_{g'} translated by g, times c_{g+g'}^-1 c_g
            pi = power * b2 - power * ((b + b2) % n) + power * b
            for beta in range(n):
                zeta = power * beta * b2
                if (pi != -e.pi_steps
                        or zeta % n != (zeta - e.zeta_exponent) % n):
                    return False
    return True


def test_coboundary_identity_matches_n3_walk():
    for n in range(2, 31):
        for power in range(1, n + 1):
            assert verify_coboundary_identity(n, power) is True, (n, power)
            assert _epsilon_n3_walk(n, power) is True, (n, power)


def test_coboundary_identity_fails_on_a_late_carry(monkeypatch):
    # carrying at b + b' > n misses the pairs with b + b' = n
    def late_carry(n, power=1):
        return {(b, b2): FormalUnit(-power * n if b + b2 > n else 0, 0, n)
                for b in range(n) for b2 in range(n)}

    monkeypatch.setattr(cohomology, "epsilon_cocycle", late_carry)
    for n in (2, 3, 7, 12, 30):
        for power in (1, 2, n - 1, n):
            assert not _epsilon_n3_walk(n, power), (n, power)
            assert not verify_coboundary_identity(n, power), (n, power)


def test_coboundary_identity_fails_on_a_dropped_carry(monkeypatch):
    real = cohomology.epsilon_cocycle

    def dropped_carry(n, power=1):
        eps = real(n, power)
        eps[n - 1, n - 1] = FormalUnit(0, 0, n)
        return eps

    monkeypatch.setattr(cohomology, "epsilon_cocycle", dropped_carry)
    for n in (2, 3, 7, 12):
        assert not verify_coboundary_identity(n)

    # the right pi-exponent with a stray root of unity fails too
    def stray_zeta(n, power=1):
        eps = real(n, power)
        eps[0, n - 1] = FormalUnit(eps[0, n - 1].pi_steps, 1, n)
        return eps

    monkeypatch.setattr(cohomology, "epsilon_cocycle", stray_zeta)
    for n in (2, 3, 7, 12):
        assert not _epsilon_n3_walk(n, 1)
        assert not verify_coboundary_identity(n)


def test_edge_map_on_boxtimes():
    for n in (2, 3, 5):
        assert lhs_edge_map(cup_product_boxtimes(n)) == identity_character(n)


def test_edge_map_ignores_coboundaries(rng):
    for n in (2, 3, 7):
        c = cup_product_boxtimes(n)
        for _ in range(5):
            shift = coboundary(Cochain.random(c.group, 1, n, rng))
            assert lhs_edge_map(c + shift) == identity_character(n)


def test_edge_map_rejects_nonvanishing_class():
    # (beta, beta') pairing restricts nontrivially to mu_n x mu_n
    G = FiniteAbelianGroup((2, 2))
    bad = Cochain(G, 2, 2, lambda g, h: g[0] * h[0])
    with pytest.raises(ValueError, match="vanish"):
        lhs_edge_map(bad)


GAMMA_CASES = ((2, FiniteField(5)), (3, FiniteField(7)), (4, FiniteField(13)),
               (3, FiniteField(5, 2)), (4, FiniteField(3, 2)))


def _dense_mul(A, B):
    n = len(A)
    return tuple(tuple(sum((A[i][k] * B[k][j] for k in range(n)), A[0][0] * 0)
                       for j in range(n)) for i in range(n))


def _dense_gamma(n, F):
    """Gamma from its definition, as dense matrices over F: the generators
    D and C, and the section S_(beta,b) = D^beta C^b."""
    zeta, one, zero = F.zeta(n), F.one(), F.zero()
    D = tuple(tuple(zeta ** i if j == i else zero for j in range(n))
              for i in range(n))
    C = tuple(tuple(one if j == (i + 1) % n else zero for j in range(n))
              for i in range(n))
    ident = tuple(tuple(one if j == i else zero for j in range(n))
                  for i in range(n))
    D_pows, C_pows = [ident], [ident]
    for _ in range(n - 1):
        D_pows.append(_dense_mul(D_pows[-1], D))
        C_pows.append(_dense_mul(C_pows[-1], C))
    S = {(beta, b): _dense_mul(D_pows[beta], C_pows[b])
         for beta in range(n) for b in range(n)}
    return ident, D, C, S


def _scaled(A, c):
    return tuple(tuple(c * e for e in row) for row in A)


def test_gamma_group_order():
    # the section and its scalar multiples zeta^a S are all of Gamma
    for n, F in GAMMA_CASES:
        zeta = F.zeta(n)
        ident, D, C, S = _dense_gamma(n, F)
        gamma = {_scaled(A, zeta ** a) for A in S.values() for a in range(n)}
        assert len(gamma) == n ** 3
        # gamma holds I and lies in <zeta I, D, C>; closed under those three
        # on the right, it is that whole group, so closed under products
        assert all(_dense_mul(A, B) in gamma
                   for A in gamma for B in (_scaled(ident, zeta), D, C))


def test_gamma_group_sorted_as_dense_matrices():
    # sorted as dense matrices of field keys, each fiber zeta^a S_(beta,b)
    # of the projection starts with S_(beta,b), the matrix with row-0 entry
    # 1: D^beta C^b is the section that the first preimage in sort order is
    for n, F in GAMMA_CASES:
        zeta = F.zeta(n)
        S = _dense_gamma(n, F)[3]
        for A in S.values():
            fiber = sorted(tuple(tuple(e.key() for e in row)
                                 for row in _scaled(A, zeta ** a))
                           for a in range(n))
            assert len(set(fiber)) == n
            assert fiber[0] == tuple(tuple(e.key() for e in row) for row in A)


def test_gamma_is_the_section_times_scalars():
    for n, F in GAMMA_CASES:
        zeta = F.zeta(n)
        S = _dense_gamma(n, F)[3]

        def entry(row):  # the one nonzero entry of a monomial row
            (j, e), = ((j, e) for j, e in enumerate(row) if not e.is_zero())
            return j, e

        for (beta, b), A in S.items():
            # the projection: ratio of the first two entries, and the
            # column of the entry in the first row
            assert entry(A[1])[1] / entry(A[0])[1] == zeta ** beta
            assert entry(A[0])[0] == b
        G = FiniteAbelianGroup((n, n))
        for g, h in itertools.product(G.elements(), repeat=2):
            prod, target = _dense_mul(S[g], S[h]), S[G.add(g, h)]
            # one scalar lambda(g, h), the same in every row
            lam = entry(prod[0])[1] / entry(target[0])[1]
            assert prod == _scaled(target, lam), (n, F, g, h)


def test_extension_factor_set_class():
    # over F_25 and F_9, zeta(3) and zeta(4) lie outside the prime field
    for n, q in GAMMA_CASES:
        c = extension_factor_set(n, q)
        assert is_cocycle(c)
        box = cup_product_boxtimes(n)
        zero = Cochain(box.group, 2, n, lambda *args: 0)
        assert cocycles_cohomologous(c, -box)
        assert not cocycles_cohomologous(c, zero)
        # the exact representative, not only its class: (g, h) -> b*beta'
        # for g = (beta, b), h = (beta', b')
        assert c == Cochain(c.group, 2, n, lambda g, h: h[0] * g[1])
    # in tuple-product order
    assert extension_factor_set(2, 5).values == (
        0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1)


# ---------------------------------------------------------------------------
# the cochains the package builds itself, through Cochain._raw

TRUSTED_GROUPS = ((1,), (2,), (3,), (4,), (5,), (6,), (2, 2), (2, 3))
# for each n, the fields with n | q - 1 among these, F_9 and F_25 included
GAMMA_FIELDS = (FiniteField(5), FiniteField(7), FiniteField(13),
                FiniteField(3, 2), FiniteField(5, 2))


def _assert_built(c, k, m, unreduced):
    """c has |G|^k values, each in [0, m), reads each back at its
    arguments, and equals the public constructor's cochain on the
    unreduced values.  The reads come before that constructor, which lists
    the group."""
    elements = list(itertools.product(*map(range, c.group.factors)))
    assert len(c.values) == len(elements) ** k
    assert all(0 <= v < m for v in c.values)
    assert [c(*args) for args in itertools.product(elements, repeat=k)] == (
        list(c.values))
    assert c == Cochain(c.group, k, m, unreduced)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.sampled_from(TRUSTED_GROUPS), st.integers(0, 2), st.integers(1, 7),
       st.integers(-9, 9), st.data())
def test_ring_ops_and_coboundary_match_the_public_constructor(
        factors, k, m, scale, data):
    # a fresh group each time: one of degree 0 stays unlisted, and _raw
    # must list it for its coboundary though _faces may be cached for an
    # equal one
    G = FiniteAbelianGroup(factors)
    ints = st.lists(st.integers(-3 * m, 3 * m), min_size=G.size ** k,
                    max_size=G.size ** k)
    x, y = data.draw(ints), data.draw(ints)
    a, b = Cochain(G, k, m, x), Cochain(G, k, m, y)
    _assert_built(coboundary(a), k + 1, m, _face_coboundary(a))
    _assert_built(a + b, k, m, [u + v for u, v in zip(x, y)])
    _assert_built(a - b, k, m, [u - v for u, v in zip(x, y)])
    _assert_built(-a, k, m, [-u for u in x])
    _assert_built(scale * a, k, m, [scale * u for u in x])
    _assert_built(a * scale, k, m, [scale * u for u in x])
    seed = data.draw(st.integers(0, 2 ** 32))
    draws = random.Random(seed)
    _assert_built(Cochain.random(FiniteAbelianGroup(factors), k, m,
                                 random.Random(seed)),
                  k, m, [draws.randrange(m) for _ in range(G.size ** k)])


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(1, 6), st.integers(0, 2 ** 32))
def test_closed_forms_match_the_public_constructor(n, seed):
    box = cup_product_boxtimes(n)
    _assert_built(box, 2, n, [g[0] * h[1] for g, h in itertools.product(
        itertools.product(range(n), repeat=2), repeat=2)])
    # the edge value at b is the pairing's slope at beta = 1, read off c
    # unreduced
    c = box + coboundary(Cochain.random(box.group, 1, n, random.Random(seed)))
    one, zero = (1 % n, 0), (0, 0)
    _assert_built(lhs_edge_map(c), 1, n, [
        c(one, (0, b)) - c((0, b), one) - c(zero, (0, b)) + c((0, b), zero)
        for b in range(n)])
    for F in GAMMA_FIELDS:
        if (F.order - 1) % n == 0:
            _assert_built(extension_factor_set(n, F), 2, n, [
                h[0] * g[1] for g, h in itertools.product(
                    itertools.product(range(n), repeat=2), repeat=2)])


def test_coboundary_lists_a_fresh_group():
    # _faces is cached per equal group: the second group is neither listed
    # by its degree-0 cochain nor by _faces, so _raw lists it
    for _ in range(2):
        G = FiniteAbelianGroup((2, 3))
        d = coboundary(Cochain(G, 0, 5, [3]))
        assert [d(g) for g in itertools.product(range(2), range(3))] == [0] * 6


def test_package_built_cochains_refuse_before_building(rng):
    T = FiniteAbelianGroup((1,))
    for build in (lambda: coboundary(Cochain(T, 10 ** 6, 2)),
                  lambda: Cochain.random(T, 10 ** 9, 2, rng),
                  lambda: cup_product_boxtimes(32),
                  lambda: extension_factor_set(32, 97)):
        start = time.perf_counter()
        with pytest.raises(cohomology.TableSizeError):
            build()
        assert time.perf_counter() - start < 1
