import os
import random
import subprocess
import sys

import pytest

from brauer import FiniteField, Poly, RatFunc, support
from brauer.finitefield import prime_powers
from brauer.poly import (ROOT_SCAN_BOUND, _distinct_degree, _equal_degree,
                         _factor, _resultant, _squarefree)


F5 = FiniteField(5)
F7 = FiniteField(7)


def t(F):
    return Poly.gen(F)


def test_factor_difference_of_squares():
    fac = (t(F5) ** 2 - 1).factor()
    assert fac == [(t(F5) + 1, 1), (t(F5) + 4, 1)]


def test_factor_linear():
    assert t(F5).factor() == [(t(F5), 1)]


def test_factor_irreducible_quadratic():
    f = t(F7) ** 2 + 1
    # oracle: exhaustive root search over F_7; degree 2 and rootless
    assert all(not f.evaluate(F7.element(k)).is_zero() for k in range(7))
    assert f.factor() == [(f, 1)]
    assert f.is_irreducible()


def test_factor_zero_rejected():
    with pytest.raises(ValueError, match="factor zero"):
        Poly.zero(F5).factor()


def _rabin_irreducible(f):
    """Rabin's test, independent of the distinct-degree split: f of degree
    n >= 1 divides t^(q^n) - t, and t^(q^(n/l)) - t is prime to f for
    each prime l | n."""
    if f.degree < 1:
        return False
    f, q, t = f.monic(), f.field.order, Poly.gen(f.field)
    if t.pow_mod(q ** f.degree, f) != t % f:
        return False
    return all(f.gcd(t.pow_mod(q ** (f.degree // ell), f) - t).degree == 0
               for ell, _ in prime_powers(f.degree))


def test_factor_reassembles(rng):
    # 1009 is above the root-scan bound, so it takes the path F_{p^d} takes
    for F in (F5, F7, FiniteField(5, 2), FiniteField(1009)):
        for _ in range(40):
            f = Poly(F, [F.from_key(rng.randrange(F.order))
                         for _ in range(rng.randrange(1, 10))])
            if f.is_zero():
                continue
            prod = Poly.constant(F, f.leading_coefficient())
            for g, mult in f.factor():
                assert g.is_monic()
                assert _rabin_irreducible(g)
                prod = prod * g ** mult
            assert prod == f


def _monic(F, d):
    """Every monic polynomial of degree d over F."""
    q = F.order
    for k in range(q ** d):
        yield Poly(F, [F.from_key(k // q ** i % q) for i in range(d)] + [1])


def _mobius(n):
    pp = prime_powers(n)
    return 0 if any(e > 1 for _, e in pp) else (-1) ** len(pp)


@pytest.mark.parametrize("p,top", [(2, 6), (3, 4), (5, 3), (7, 3)])
def test_irreducible_count_matches_gauss(p, top):
    # N_q(d) = (1/d) sum_{k | d} mu(d/k) q^k monic irreducibles of degree d
    F = FiniteField(p)
    for d in range(1, top + 1):
        gauss = sum(_mobius(d // k) * p ** k
                    for k in range(1, d + 1) if d % k == 0) // d
        assert sum(f.is_irreducible() for f in _monic(F, d)) == gauss


def test_irreducible_agrees_with_rabin(rng):
    t5 = t(F5)
    known = {
        Poly.zero(F5): False, Poly.one(F5): False, Poly.constant(F5, 3): False,
        3 * t5 + 1: True, 2 * (t5 ** 2 + 2): True, 4 * (t5 ** 2 - 1): False,
        t5 ** 5 - t5 - 1: True,  # Artin-Schreier
        t5 ** 5 + 2: False, t5 ** 10 + t5 ** 5 + 1: False,  # derivative 0
    }
    for f, want in known.items():
        assert f.is_irreducible() == _rabin_irreducible(f) == want, f
    for F in (F5, F7, FiniteField(5, 2)):
        for _ in range(30):
            g = Poly(F, [F.from_key(rng.randrange(F.order))
                         for _ in range(rng.randrange(1, 5))])
            f = Poly(F, [F.from_key(rng.randrange(1, F.order))]) * g
            assert f.is_irreducible() == _rabin_irreducible(f), f
            # g(t^p) is a p-th power
            gp = Poly(F, [0 if i % F.p else g.coefficient(i // F.p)
                          for i in range(F.p * g.degree + 1)])
            assert gp.derivative().is_zero()
            assert not gp.is_irreducible() and not _rabin_irreducible(gp)


def test_factors_are_distinct(rng):
    for _ in range(20):
        f = Poly(F5, [rng.randrange(5) for _ in range(rng.randrange(2, 9))])
        if f.is_zero():
            continue
        factors = [g for g, _ in f.factor()]
        assert len(factors) == len(set(factors))


def test_repeated_factors():
    f = (t(F5) + 1) ** 3 * (t(F5) ** 2 + 2)
    assert f.factor() == [(t(F5) + 1, 3), (t(F5) ** 2 + 2, 1)]
    # a root of multiplicity p, where the derivative of (t + 1)^5 vanishes
    f = (t(F5) + 1) ** 5 * (t(F5) ** 2 + 2) ** 2
    assert f.factor() == [(t(F5) + 1, 5), (t(F5) ** 2 + 2, 2)]
    # root-free but reducible: the scan leaves a quartic to the general path
    f = (t(F5) ** 2 + 2) * (t(F5) ** 2 + 3)
    assert f.factor() == [(t(F5) ** 2 + 2, 1), (t(F5) ** 2 + 3, 1)]
    F13 = FiniteField(13)
    cubic = t(F13) ** 3 + 2  # 2 is not a cube mod 13
    assert all(not cubic.evaluate(F13.element(k)).is_zero()
               for k in range(13))
    f = 3 * (t(F13) - 12) ** 3 * cubic
    assert f.factor() == [(t(F13) + 1, 3), (cubic, 1)]


def test_root_scan_matches_general_path():
    # _factor scans for roots over F_p with p <= ROOT_SCAN_BOUND and hands
    # on what is left; the reference runs squarefree, distinct-degree and
    # equal-degree splitting on the whole input, on both sides of the bound
    rng = random.Random(33)
    assert 13 <= ROOT_SCAN_BOUND < 1009
    for p in (3, 5, 13, 1009):
        F = FiniteField(p)
        for _ in range(30):
            # degree d in 1..10, with a root c of multiplicity k >= 2 once
            # d >= 2, c often the last element p - 1 of the scan
            d = rng.randrange(1, 11)
            k = rng.randrange(min(d, 2), min(d, 4) + 1)
            c = rng.choice((0, p - 1, rng.randrange(p)))
            rest = [rng.randrange(p) for _ in range(d - k)]
            a = (Poly(F, rest + [rng.randrange(1, p)])
                 * (t(F) - c) ** k).coeffs
            want = [(irr, mult) for sqf, mult in _squarefree(F, a)
                    for piece, d in _distinct_degree(F, sqf)
                    for irr in _equal_degree(F, piece, d)]
            want.sort(key=lambda fm: (len(fm[0]), fm[0][::-1]))
            assert _factor(F, a) == want, (p, a)


def test_division_identity(rng):
    for _ in range(40):
        f = Poly(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 9))])
        g = Poly(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 6))])
        if g.is_zero():
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_gcd_divides_both(rng):
    for _ in range(30):
        f = Poly(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 7))])
        g = Poly(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 7))])
        if f.is_zero() or g.is_zero():
            continue
        d = f.gcd(g)
        assert (f % d).is_zero()
        assert (g % d).is_zero()


def test_roots():
    f = (t(F5) - 2) * (t(F5) - 2) * (t(F5) + 1)
    assert f.roots() == [F5.element(2), F5.element(4)]


def test_repr_grammar_round_trip():
    from brauer import parse_poly
    f = t(F5) ** 3 + 3 * t(F5) + 1
    assert parse_poly(repr(f), F5) == f


# -- reference arithmetic: plain-int schoolbook over F_p, FieldElement over
# F_{p^2}; coefficient lists are low degree first with no trailing zeros


def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _int_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _int_divmod(a, b, p):
    rem, inv = list(a), pow(b[-1], p - 2, p)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + len(b) - 1] * inv % p
        quo[i] = c
        for j, y in enumerate(b):
            rem[i + j] = (rem[i + j] - c * y) % p
    return _trim(quo), _trim(rem)


def _int_monic(a, p):
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _int_gcd(a, b, p):
    while b:
        a, b = b, _int_divmod(a, b, p)[1]
    return _int_monic(a, p) if a else a


def _int_pow_mod(a, e, m, p):
    result, base = _int_divmod([1], m, p)[1], _int_divmod(a, m, p)[1]
    while e:
        if e & 1:
            result = _int_divmod(_int_mul(result, base, p), m, p)[1]
        base = _int_divmod(_int_mul(base, base, p), m, p)[1]
        e >>= 1
    return result


def _int_derivative(a, p):
    return _trim([i * c % p for i, c in enumerate(a)][1:])


def _random_ints(rng, p, max_len=9):
    return _trim([rng.randrange(p) for _ in range(rng.randrange(0, max_len))])


def _int_add(a, b, p):
    a, b = a + [0] * (len(b) - len(a)), b + [0] * (len(a) - len(b))
    return _trim([(x + y) % p for x, y in zip(a, b)])


def _int_neg(a, p):
    return [-c % p for c in a]


# at 2^31 - 1 and 10^9 + 7 a product of two keys is near 2^62, so the
# unreduced sums of 40 of them in _mul and _divmod pass 2^64
@pytest.mark.parametrize("p", [5, 13, 2 ** 31 - 1, 10 ** 9 + 7])
def test_arithmetic_matches_int_schoolbook(rng, p):
    F = FiniteField(p)
    max_len = 9 if p < 100 else 41
    for _ in range(60):
        a, b = _random_ints(rng, p, max_len), _random_ints(rng, p, max_len)
        A, B = Poly(F, a), Poly(F, b)
        assert list(A.coeffs) == a and list(B.coeffs) == b
        assert list((A + B).coeffs) == _int_add(a, b, p)
        assert list((A - B).coeffs) == _int_add(a, _int_neg(b, p), p)
        assert list((-A).coeffs) == _int_neg(a, p)
        assert list((A * B).coeffs) == _int_mul(a, b, p)
        assert list(A.derivative().coeffs) == _int_derivative(a, p)
        if not b:
            continue
        q, r = divmod(A, B)
        assert (list(q.coeffs), list(r.coeffs)) == _int_divmod(a, b, p)
        assert list(B.monic().coeffs) == _int_monic(b, p)
        assert list(A.gcd(B).coeffs) == _int_gcd(a, b, p)
        e = rng.randrange(0, min(p ** 3, 10 ** 6))
        assert list(A.pow_mod(e, B).coeffs) == _int_pow_mod(a, e, b, p)


def _int_ratfunc(a, b, p):
    """(num, den) of a/b normalised by hand: the gcd cancelled, then both
    divided by the leading coefficient of what is left of b."""
    if not a:
        return [], [1]
    g = _int_gcd(a, b, p)
    a, b = _int_divmod(a, g, p)[0], _int_divmod(b, g, p)[0]
    inv = pow(b[-1], p - 2, p)
    return [c * inv % p for c in a], [c * inv % p for c in b]


def _ratfunc_cases(rng, draw, mul, one):
    """(num, den) pairs: a common factor, a non-monic denominator and a zero
    numerator, then random ones with a random common factor multiplied in."""
    # t(t+1) / 2t^2(t+1), then coprime pairs, zero over a non-monic and
    # over a constant, and two constants
    cases = [(mul([0, 1], [1, 1]), mul([0, 0, 2], [1, 1])),
             ([1, 2], [3, 0, 4]), ([], [2, 1]), ([], [3]), ([3], [2])]
    for _ in range(60):
        a, b, c = draw(), draw() or one, draw() or one
        cases.append((mul(a, c), mul(b, c)))
    return cases


@pytest.mark.parametrize("p", [5, 13])
def test_ratfunc_normalisation_matches_int_reference(rng, p):
    F = FiniteField(p)
    cases = _ratfunc_cases(rng, lambda: _random_ints(rng, p, 5),
                           lambda a, b: _int_mul(a, b, p), [1])
    for a, b in cases:
        f = RatFunc(Poly(F, a), Poly(F, b))
        assert (list(f.num.coeffs), list(f.den.coeffs)) == _int_ratfunc(
            a, b, p), (a, b)


def test_ratfunc_normalisation_over_p2_matches_field_elements(rng):
    F = FiniteField(13, 2)

    def draw():
        return _trim_elements([F.from_key(rng.randrange(F.order))
                               for _ in range(rng.randrange(0, 5))])

    def gcd(a, b):
        while b:
            a, b = b, _trim_elements(_element_divmod(a, b, F)[1])
        return [c * a[-1].inverse() for c in a]

    one, x = [F.one()], F.element([0, 1])
    cases = _ratfunc_cases(rng, draw,
                           lambda a, b: _trim_elements(_element_mul(a, b, F)),
                           one)
    cases.append(([x], [F.zero(), x]))  # x / (x t): the lc is not in F_13
    for a, b in cases:
        a, b = [F.element(c) for c in a], [F.element(c) for c in b]
        f = RatFunc(Poly(F, a), Poly(F, b))
        if not a:
            want_num, want_den = [], one
        else:
            g = gcd(a, b)
            want_num = _element_divmod(a, g, F)[0]
            want_den = _element_divmod(b, g, F)[0]
            inv = want_den[-1].inverse()
            want_num = [c * inv for c in want_num]
            want_den = [c * inv for c in want_den]
        assert _same(f.num, want_num) and _same(f.den, want_den), (a, b)


def _int_sylvester_resultant(a, b, p):
    """det of the Sylvester matrix of a and b mod p: deg b rows of a's
    coefficients and deg a rows of b's, top degree first, each shifted one
    column right of the row above; eliminated with a sign per swap."""
    m, k = len(a) - 1, len(b) - 1
    rows = ([[0] * i + a[::-1] + [0] * (k - 1 - i) for i in range(k)]
            + [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)])
    det = 1
    for col in range(m + k):
        pivot = next((r for r in range(col, m + k) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot], det = rows[pivot], rows[col], -det
        det = det * rows[col][col] % p
        inv = pow(rows[col][col], -1, p)
        for r in range(col + 1, m + k):
            c = rows[r][col] * inv % p
            rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[col])]
    return det % p


@pytest.mark.parametrize("p", [5, 13])
def test_resultant_matches_sylvester_determinant(rng, p):
    F = FiniteField(p)
    t = [0, 1]
    cases = [
        (t, [1, 2, 0, 1]),  # deg a * deg b = 3: the sign (-1)^(deg a deg b)
        ([2, 1, 1], [3, 0, 4, 1, 2]),  # 2 * 4
        ([1, 0, 3, 1], [4, 1, 0, 2]),  # 3 * 3 = 9, odd
        ([1, 2, 0, 1], [3]),  # a constant b: Res = b^deg a
        ([3], [1, 2, 0, 1]),  # a constant a: Res = a^deg b
        (_int_mul([1, 1], [2, 0, 1], p), _int_mul([1, 1], [3, 1], p)),
    ]
    for _ in range(60):
        cases.append((_random_ints(rng, p, 7) or [1],
                      _random_ints(rng, p, 7) or [2]))
    odd = 0
    for a, b in cases:
        want = _int_sylvester_resultant(a, b, p)
        assert _resultant(F, a, b) == want, (a, b)
        odd += (len(a) - 1) * (len(b) - 1) % 2
    # a shared factor gives 0, and so does a zero argument
    assert _resultant(F, *cases[5]) == 0
    assert _resultant(F, [], [1, 1]) == _resultant(F, [1, 1], []) == 0
    assert odd >= 2


def test_resultant_over_p2_is_product_over_roots(rng):
    # over F_25, Res(c * prod (t - r_i), b) = c^deg b * prod b(r_i): the
    # kernel steps through F_25's key ops, so it is the norm to F_25
    F = FiniteField(5, 2)
    for _ in range(30):
        roots = [F.from_key(rng.randrange(F.order))
                 for _ in range(rng.randrange(1, 5))]
        c = F.from_key(rng.randrange(1, F.order))
        a = Poly.constant(F, c)
        for r in roots:
            a = a * (t(F) - r)
        b = Poly(F, [F.from_key(rng.randrange(F.order))
                     for _ in range(rng.randrange(1, 6))])
        if b.is_zero():
            continue
        want = c ** b.degree
        for r in roots:
            want = want * b.evaluate(r)
        assert _resultant(F, a.coeffs, b.coeffs) == want.key()


def _element_mul(a, b, F):
    out = [F.zero()] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _element_divmod(a, b, F):
    rem, inv = list(a), b[-1].inverse()
    quo = [F.zero()] * max(len(a) - len(b) + 1, 0)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + len(b) - 1] * inv
        quo[i] = c
        for j, y in enumerate(b):
            rem[i + j] = rem[i + j] - c * y
    return quo, rem


def _trim_elements(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def _same(P, elements):
    """P equals the polynomial with these FieldElement coefficients."""
    keys = [c.key() for c in elements]
    while keys and not keys[-1]:
        keys.pop()
    return list(P.coeffs) == keys


@pytest.mark.parametrize("p", [5, 13])
def test_arithmetic_over_p2_matches_field_elements(rng, p):
    F = FiniteField(p, 2)
    for _ in range(40):
        a = [F.from_key(rng.randrange(F.order))
             for _ in range(rng.randrange(0, 7))]
        b = [F.from_key(rng.randrange(F.order))
             for _ in range(rng.randrange(1, 5))]
        if not any(not c.is_zero() for c in b):
            continue
        while b[-1].is_zero():
            b.pop()
        A, B = Poly(F, a), Poly(F, b)
        assert _same(A, a) and _same(B, b)
        assert _same(A * B, _element_mul(a, b, F))
        assert _same(A.derivative(), [c * i for i, c in enumerate(a)][1:])
        q, r = divmod(A, B)
        eq, er = _element_divmod(a, b, F)
        assert _same(q, eq) and _same(r, er)
        inv = b[-1].inverse()
        assert _same(B.monic(), [c * inv for c in b])
        g = A.gcd(B)
        assert g.is_zero() or g.is_monic()
        assert (A % g).is_zero() and (B % g).is_zero()
        e = rng.randrange(50)
        want = Poly.one(F) % B
        for _ in range(e):
            want = (want * A) % B
        assert A.pow_mod(e, B) == want


def test_coefficients_are_int_keys():
    F25 = FiniteField(5, 2)
    x = F25.element([0, 1])
    f = Poly(F25, [x, 7, (3, 4)])
    # ints are prime-field constants; an element's key is c0 + 5*c1
    assert f.coeffs == (5, 2, 23)
    assert f.coefficient(2) == F25.element([3, 4])
    assert Poly(F5, [7, 0, 10]).coeffs == (2,)


def test_elements_of_another_field_are_refused_or_unequal():
    F13 = FiniteField(13)
    f = Poly(F5, [1, 1])
    # t + 1 at 12 of F_13 is 13: no value in F_5, so no answer
    with pytest.raises(ValueError, match="different field"):
        f.evaluate(F13.element(12))
    assert f.evaluate(F5.element(3)) == F5.element(4)
    assert Poly(F5, [1]) != F13.element(1)
    assert not Poly(F5, [1]) == F13.element(1)
    assert Poly(F5, [1]) == F5.element(1) and Poly(F5, [1]) == 6


def test_factor_and_repr_literals():
    f = Poly(F5, [1, 0, 0, 0, 1])  # t^4 + 1
    assert [(repr(g), m) for g, m in f.factor()] == [("t^2+2", 1),
                                                     ("t^2+3", 1)]
    F13 = FiniteField(13)
    g = Poly(F13, [12, 0, 0, 1]) * Poly(F13, [1, 1])  # (t^3 - 1)(t + 1)
    assert repr(g) == "t^4+t^3+12*t+12"
    assert [(repr(h), m) for h, m in g.factor()] == [
        ("t+1", 1), ("t+4", 1), ("t+10", 1), ("t+12", 1)]
    F25 = FiniteField(5, 2)
    h = (Poly(F25, [F25.element([1, 2]), 0, 1])
         * Poly(F25, [F25.element([0, 1]), 1]) ** 2)
    assert repr(h) == "t^4+[0,2]*t^3+[4,2]*t^2+[2,2]*t+[3,1]"
    assert [(repr(k), m) for k, m in h.factor()] == [
        ("t+[0,1]", 2), ("t+[4,1]", 1), ("t+[1,4]", 1)]
    assert repr(Poly(F5, [3, 0, 2, 1])) == "t^3+2*t^2+3"


def test_key_orders_places_as_field_element_keys(rng):
    for F in (F5, FiniteField(13), FiniteField(5, 2)):
        polys = [Poly(F, [F.from_key(rng.randrange(F.order))
                          for _ in range(rng.randrange(1, 6))])
                 for _ in range(60)]
        old = [(f.degree, tuple(f.coefficient(i).key()
                                for i in range(f.degree, -1, -1)))
               for f in polys]
        assert [f.key() for f in polys] == old


def test_split_is_independent_of_the_hash_seed():
    # str hashes change with PYTHONHASHSEED; the draws of _split must not
    script = ("from brauer import FiniteField, Poly\n"
              "from brauer.poly import _split\n"
              "F = FiniteField(13)\n"
              "f = Poly.one(F)\n"
              "for r in (1, 2, 3, 5, 7, 11):\n"
              "    f = f * Poly(F, [-r, 1])\n"
              "print(_split(F, f.coeffs, 1))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        out.add(run.stdout)
    assert len(out) == 1


def test_even_order_factors_whose_pieces_are_irreducible():
    # equal-degree splitting is for odd q, but a distinct-degree piece that
    # is already one irreducible needs none
    F2 = FiniteField(2)
    t = Poly.gen(F2)
    for f, want in ((t ** 2 + t + 1, [(t ** 2 + t + 1, 1)]),
                    ((t + 1) ** 2, [(t + 1, 2)]),
                    (t ** 3 + t + 1, [(t ** 3 + t + 1, 1)]),
                    ((t ** 2 + t + 1) * (t ** 3 + t + 1) ** 2 * t,
                     [(t, 1), (t ** 2 + t + 1, 1), (t ** 3 + t + 1, 2)])):
        assert f.factor() == want, f
    assert [P.poly for P in support(RatFunc(t ** 2 + t + 1))] == [t ** 2 + t + 1]
    with pytest.raises(NotImplementedError, match="odd order"):
        (t ** 2 + t).factor()  # two linear factors: a split in characteristic 2
