import math

import pytest

from brauer import (FiniteField, TableSizeError, corestrict,
                    power_residue_character)
from brauer import cohomology
from brauer.finitefield import (PRIMALITY_BOUND, is_prime, norm_to_prime_field,
                                prime_powers)


# reference arithmetic on keys (key = sum c_i p^i): digits by plain ints,
# products by schoolbook and long division by F.modulus

def _ref_digits(F, k):
    return [k // F.p ** i % F.p for i in range(F.d)]


def _ref_key(F, cs):
    return sum(c % F.p * F.p ** i for i, c in enumerate(cs))


def _ref_mul(F, a, b):
    prod = [0] * (2 * F.d - 1)
    for i, x in enumerate(_ref_digits(F, a)):
        for j, y in enumerate(_ref_digits(F, b)):
            prod[i + j] += x * y
    for top in range(2 * F.d - 2, F.d - 1, -1):
        c = prod[top]
        for j, m in enumerate(F.modulus):
            prod[top - F.d + j] -= c * m
    assert not any(c % F.p for c in prod[F.d:])
    return _ref_key(F, prod[:F.d])


def _ref_pow(F, a, e):
    out = 1
    for bit in bin(e)[2:]:
        out = _ref_mul(F, out, out)
        if bit == "1":
            out = _ref_mul(F, out, a)
    return out


F5 = FiniteField(5)
F7 = FiniteField(7)
F13 = FiniteField(13)
F49 = FiniteField(7, 2)


def test_prime_powers():
    for n in range(-2, 3000):
        pp = prime_powers(n)
        assert math.prod(p ** e for p, e in pp) == max(n, 1)
        ps = [p for p, _ in pp]
        assert ps == sorted(set(ps))
        assert all(e >= 1 and all(p % d for d in range(2, math.isqrt(p) + 1))
                   for p, e in pp)


def _trial_division(n):
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            out.append((p, e))
        p += 1
    return out + [(n, 1)] * (n > 1)


def test_prime_powers_stop_at_a_prime_cofactor():
    for n in range(-2, 20000):
        assert prime_powers(n) == _trial_division(n), n
    # plain trial division would run about 10^9 steps on each of these
    big = 10 ** 18 + 3
    assert prime_powers(big) == [(big, 1)]
    assert prime_powers(2 * big) == [(2, 1), (big, 1)]
    assert prime_powers(12 * big) == [(2, 2), (3, 1), (big, 1)]


def test_prime_powers_refuse_a_composite_cofactor_past_the_trial_budget():
    # the 10^6 trial divisors are 2 and the odd numbers below 2 * 10^6: a
    # product of two primes, the smaller below that, factors, and one of
    # two primes past it is refused with the divisors up to its square root
    assert prime_powers(1999993 * 2000003) == [(1999993, 1), (2000003, 1)]
    for m, estimate in ((2000003 * 2000029, 1000008),
                        (1000000007 * 1000000009, 500000004)):
        with pytest.raises(TableSizeError,
                           match=f"trial division of {estimate} entries"):
            prime_powers(m)


def test_is_prime_matches_trial_division():
    for n in range(-2, 10 ** 5):
        assert is_prime(n) == (_trial_division(n) == [(n, 1)]), n


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # strong pseudoprimes to the first 4, 9 and 12 prime bases: each is
    # caught by a later base
    for factors in ((151, 751, 28351), (149491, 747451, 34233211),
                    (399165290221, 798330580441)):
        assert not is_prime(math.prod(factors)), factors
    assert math.prod((151, 751, 28351)) == 3215031751
    assert math.prod((149491, 747451, 34233211)) == 3825123056546413051
    for p in (2 ** 31 - 1, 2 ** 61 - 1, 10 ** 18 + 3):
        assert is_prime(p) and not is_prime(p * 1000003), p
    assert is_prime(3317044064679887385961813)  # the last below the bound


def test_is_prime_refuses_at_the_bound():
    assert PRIMALITY_BOUND == 3317044064679887385961981
    assert not is_prime(PRIMALITY_BOUND - 1)
    for n in (PRIMALITY_BOUND, PRIMALITY_BOUND + 1, 10 ** 30):
        with pytest.raises(ValueError, match=str(PRIMALITY_BOUND)):
            is_prime(n)
        with pytest.raises(ValueError, match=str(PRIMALITY_BOUND)):
            FiniteField(n)


def test_field_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        FiniteField(6)
    with pytest.raises(ValueError):
        FiniteField(5, 0)
    with pytest.raises(ValueError):
        FiniteField(5, 2, modulus=(1, 0, 2))  # not monic
    with pytest.raises(ValueError):
        FiniteField(5, 2, modulus=(4, 0, 1))  # t^2 - 1 is reducible


def test_field_instances_are_cached():
    assert FiniteField(5) is FiniteField(5)
    assert FiniteField(7, 2) is FiniteField(7, 2)
    for p, d in ((5, 2), (7, 3), (13, 4)):
        F = FiniteField(p, d)
        assert F is FiniteField(p, d, F.modulus)
        assert F is FiniteField(p, d, [c + p for c in F.modulus])
    # a field first built from its default modulus given explicitly
    G = FiniteField(11, 2, (1, 0, 1))
    assert FiniteField(11, 2) is G


def test_default_moduli():
    expected = {
        2: [(0, 1), (1, 1, 1), (1, 1, 0, 1), (1, 1, 0, 0, 1)],
        3: [(0, 1), (1, 0, 1), (1, 2, 0, 1), (2, 1, 0, 0, 1)],
        5: [(0, 1), (2, 0, 1), (1, 1, 0, 1), (2, 0, 0, 0, 1)],
        7: [(0, 1), (1, 0, 1), (2, 0, 0, 1), (1, 1, 0, 0, 1)],
        13: [(0, 1), (2, 0, 1), (2, 0, 0, 1), (2, 0, 0, 0, 1)],
    }
    for p, moduli in expected.items():
        for d, modulus in enumerate(moduli, start=1):
            assert FiniteField(p, d).modulus == modulus


def test_reducible_modulus_rejected_after_caching():
    FiniteField(5, 2)
    FiniteField(5, 2, (3, 0, 1))  # t^2 + 3 is irreducible mod 5
    for _ in range(2):
        with pytest.raises(ValueError, match="irreducible"):
            FiniteField(5, 2, (4, 0, 1))  # t^2 - 1
        with pytest.raises(ValueError, match="irreducible"):
            FiniteField(5, 3, (2, 2, 1, 1))  # (t + 1)(t^2 + 2)


def test_arithmetic_axioms_by_sampling(rng):
    for F in (F5, F49, FiniteField(13, 2), FiniteField(5, 3),
              FiniteField(13, 4)):
        elems = [F.from_key(rng.randrange(F.order)) for _ in range(30)]
        for a in elems[:10]:
            for b in elems[10:20]:
                assert (a + b) - b == a
                assert a * b == b * a
                if not b.is_zero():
                    assert (a * b) / b == a
        for a in elems:
            if not a.is_zero():
                assert a * a.inverse() == F.one()
                assert a ** (F.order - 1) == F.one()


def test_negative_powers(rng):
    for F in (F5, FiniteField(5, 3), FiniteField(13, 2)):
        for _ in range(20):
            a = F.from_key(rng.randrange(1, F.order))
            for k in (1, 2, 3, F.order - 2, F.order - 1, F.order + 5):
                assert a ** -k == (a ** k).inverse()
                assert a ** -k * a ** k == F.one()
        with pytest.raises(ZeroDivisionError):
            F.zero() ** -1
        with pytest.raises(ZeroDivisionError):
            F.zero().inverse()
        assert F.zero() ** 0 == F.one()


@pytest.mark.parametrize("p,d", [(5, 2), (7, 3), (13, 4)])
def test_log_tables(rng, p, d):
    F = FiniteField(p, d)
    log = F._log_tables()
    assert F._log_tables() is log  # built once
    m, g = F.order - 1, F.zeta(F.order - 1).key()
    # log is a bijection from the nonzero keys onto range(q - 1), and
    # g to the power log[k] is k
    assert log[0] == -1 and sorted(log[1:]) == list(range(m))
    assert all(F._kpow(g, log[k]) == k for k in range(1, F.order))
    for _ in range(200):
        a, b = rng.randrange(1, F.order), rng.randrange(1, F.order)
        assert log[_ref_mul(F, a, b)] == (log[a] + log[b]) % m


def test_zeta_is_smallest_of_exact_order():
    assert F5.zeta(2) == F5.element(4)
    assert F5.zeta(4) == F5.element(2)
    assert F7.zeta(3) == F7.element(2)
    assert F13.zeta(2) == F13.element(12)
    assert F13.zeta(4) == F13.element(5)
    assert _order(F5.zeta(2)) == 2
    with pytest.raises(ValueError):
        F5.zeta(3)


def _order(u):
    """The multiplicative order of a unit u, by walking its powers."""
    k, w = 1, u
    while w != u.field.one():
        k, w = k + 1, w * u
    return k


def _zeta_by_scan(F, n):
    """The smallest element of exact order n, by a scan of the elements."""
    ells = [ell for ell, _ in prime_powers(n)]
    for u in F.elements():
        if not u.is_zero() and u ** n == F.one() and all(
                u ** (n // ell) != F.one() for ell in ells):
            return u


def test_zeta_walks_at_most_the_guard(monkeypatch):
    # n <= 10^6 answers (over q = 22000001, 10^6 | q - 1); n = q - 1 over
    # q = 1000003 and two divisors of 10^18 + 2 are refused before a walk
    F = FiniteField(22000001)
    z = F.zeta(10 ** 6)
    assert z ** (10 ** 6) == F.one()
    assert all(z ** (10 ** 6 // ell) != F.one() for ell in (2, 5))
    for q, n in ((1000003, 1000002), (10 ** 18 + 3, 104890113446),
                 (10 ** 18 + 3, 500000000000000001)):
        with pytest.raises(TableSizeError,
                           match=f"n-th roots of unity of {n} entries"):
            FiniteField(q).zeta(n)
    # the check is made once per n: characters read the cached root
    calls = []
    real = cohomology.check_work
    monkeypatch.setattr(cohomology, "check_work",
                        lambda *args: calls.append(args) or real(*args))
    F = FiniteField(1000003)
    for k in range(2, 12):
        power_residue_character(F.element(k), 500001)
    assert calls == [("n-th roots of unity", 500001)]


def test_zeta_matches_element_scan():
    primes = [p for p in range(2, 100) if prime_powers(p) == [(p, 1)]]
    for F in [FiniteField(p) for p in primes] + [FiniteField(5, 2),
                                                 FiniteField(13, 2)]:
        for n in range(1, F.order):
            if (F.order - 1) % n == 0:
                assert F.zeta(n) == _zeta_by_scan(F, n), (F, n)


def test_inverse_matches_fermat_power(rng):
    F125 = FiniteField(5, 3)
    for k in range(1, F125.order):
        assert F125._kinv(k) == _ref_pow(F125, k, F125.order - 2)
    for F in (FiniteField(13, 4), FiniteField(7, 6)):
        for _ in range(500):
            k = rng.randrange(1, F.order)
            assert F._kinv(k) == _ref_pow(F, k, F.order - 2)
    with pytest.raises(ZeroDivisionError):
        F125._kinv(0)


def test_key_ops_match_int_reference(rng):
    for F in (FiniteField(5, 3), FiniteField(13, 4), FiniteField(7, 6)):
        p, q = F.p, F.order
        keys = [0, 1, p - 1, p, q - 1] + [rng.randrange(q) for _ in range(35)]
        inv = {k: _ref_pow(F, k, q - 2) for k in keys if k}
        for a in keys:
            x, da = F.from_key(a), _ref_digits(F, a)
            neg = _ref_key(F, [-c for c in da])
            assert F._kneg(a) == (-x).key() == neg
            for b in keys:
                y, db = F.from_key(b), _ref_digits(F, b)
                add = _ref_key(F, [s + t for s, t in zip(da, db)])
                sub = _ref_key(F, [s - t for s, t in zip(da, db)])
                assert F._kadd(a, b) == (x + y).key() == add
                assert F._ksub(a, b) == (x - y).key() == sub
                assert F._kmul(a, b) == (x * y).key() == _ref_mul(F, a, b)
                if b:
                    assert (x / y).key() == _ref_mul(F, a, inv[b])
                else:
                    with pytest.raises(ZeroDivisionError):
                        x / y
            if a:
                assert F._kinv(a) == x.inverse().key() == inv[a]
            else:
                with pytest.raises(ZeroDivisionError):
                    x.inverse()
            for e in (0, 1, 2, 7, q - 2, q - 1, q, rng.randrange(q * q)):
                assert F._kpow(a, e) == (x ** e).key() == _ref_pow(F, a, e)
                if a:
                    ref = _ref_pow(F, inv[a], e)
                    assert F._kpow(a, -e) == (x ** -e).key() == ref
                elif e:
                    with pytest.raises(ZeroDivisionError):
                        x ** -e


def test_character_examples():
    # identity is always an n-th power
    assert power_residue_character(F5.one(), 2).value == 0
    # Euler criterion: 3^2 = 4 = -1 mod 5
    assert power_residue_character(F5.element(3), 2).value == 1
    # 5^((7-1)/3) = 25 = 4 = 2^2 mod 7
    assert power_residue_character(F7.element(5), 3).value == 2


def test_character_errors():
    with pytest.raises(ValueError):
        power_residue_character(F5.zero(), 2)
    with pytest.raises(ValueError):
        power_residue_character(F5.element(2), 3)


def test_character_is_homomorphism(rng):
    for F, n in ((F5, 2), (F5, 4), (F13, 4), (F49, 3)):
        units = [F.from_key(k) for k in range(1, F.order)
                 if not F.from_key(k).is_zero()]
        sample = [units[rng.randrange(len(units))] for _ in range(25)]
        for u in sample[:12]:
            for v in sample[12:]:
                lhs = power_residue_character(u * v, n).value
                rhs = (power_residue_character(u, n).value
                       + power_residue_character(v, n).value) % n
                assert lhs == rhs
        for u in sample:
            assert power_residue_character(u ** n, n).value == 0


def test_corestrict_trivial_extension():
    for k in range(1, 5):
        u = F5.element(k)
        assert corestrict(u, 2) == power_residue_character(u, 2)


def test_corestrict_norm_of_generator():
    # the norm F_49 -> F_7 raises to the power (49-1)/(7-1) = 8
    gen = next(u for u in F49.elements()
               if not u.is_zero() and _order(u) == 48)
    assert norm_to_prime_field(gen) == F7.element((gen ** 8).coeffs[0])
    assert corestrict(gen, 3) == power_residue_character(
        norm_to_prime_field(gen), 3)


def test_corestrict_kills_nth_powers(rng):
    for _ in range(20):
        u = F49.from_key(rng.randrange(1, 49))
        if u.is_zero():
            continue
        assert corestrict(u ** 3, 3).value == 0


def test_norm_is_multiplicative(rng):
    for _ in range(25):
        u = F49.from_key(rng.randrange(1, 49))
        v = F49.from_key(rng.randrange(1, 49))
        if u.is_zero() or v.is_zero():
            continue
        assert (norm_to_prime_field(u * v)
                == norm_to_prime_field(u) * norm_to_prime_field(v))


def test_corestrict_of_base_class_is_multiplication_by_degree(rng):
    # u in F_7 included into F_49: corestriction doubles the class
    for k in range(1, 7):
        u7 = F7.element(k)
        u49 = F49.element(k)
        assert (power_residue_character(u49, 3).value
                == 2 * power_residue_character(u7, 3).value % 3)
        assert corestrict(u49, 3).value == (2 * power_residue_character(u7, 3).value) % 3
