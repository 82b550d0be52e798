from math import gcd

import pytest

from brauer import (
    FiniteField,
    Place,
    Poly,
    RatFunc,
    ResidueClass,
    SymbolClass,
    ramification_divisor,
    reciprocity_sum,
    residue_cocycle_route,
    tame_residue,
)
from brauer import cohomology, residues
from brauer.finitefield import (_FIELD_CACHE, corestrict, norm_to_prime_field,
                                power_residue_character)
from brauer.parsing import parse_symbol_sum
from brauer.ratfunc import _divide_out_pi, _unit_key, reduce_at, valuation
from brauer.residues import RamificationDivisor, _tame_norm

from conftest import (local_test_places, random_place, random_ratfunc,
                      random_unit_at)


F5 = FiniteField(5)
F13 = FiniteField(13)
T5 = RatFunc.gen(F5)
PLACE_T = Place(F5, Poly.gen(F5))
INF5 = Place.infinity(F5)


def test_constructor_validation():
    with pytest.raises(ValueError, match="must divide"):
        SymbolClass.symbol(T5, T5 + 1, n=3)
    with pytest.raises(ValueError, match="nonzero"):
        SymbolClass.symbol(T5, RatFunc.zero(F5), n=2)
    # a symbol modulus below 2 names no n-torsion class
    for n in (0, 1, -2):
        for build in (lambda: SymbolClass.symbol(T5, T5 + 1, n=n),
                      lambda: SymbolClass(n, [])):
            with pytest.raises(ValueError, match=">= 2"):
                build()


def test_tame_residue_examples():
    # v_t(t) = 1, so res_t((t, u)_n) = -chi(u(0))
    alpha = SymbolClass.symbol(T5, RatFunc.constant(F5, 2), n=2)
    assert tame_residue(alpha, PLACE_T) == ResidueClass(2, 1, F5.zeta(2))

    F7 = FiniteField(7)
    beta = SymbolClass.symbol(RatFunc.gen(F7), RatFunc.constant(F7, 3), n=3)
    assert tame_residue(beta, Place(F7, Poly.gen(F7))) == \
        ResidueClass(3, 2, F7.zeta(3))

    gamma = SymbolClass.symbol(T5, T5, n=2)
    assert tame_residue(gamma, PLACE_T).value == 0


def test_tame_residue_unramified_is_zero(rng):
    for _ in range(20):
        P = random_place(rng, F5)
        u = random_unit_at(rng, F5, P)
        v = random_unit_at(rng, F5, P)
        alpha = SymbolClass.symbol(u, v, n=4)
        assert tame_residue(alpha, P).value == 0


def test_bilinearity(rng):
    for _ in range(25):
        P = random_place(rng, F13)
        f = random_ratfunc(rng, F13)
        g = random_ratfunc(rng, F13)
        h = random_ratfunc(rng, F13)
        lhs = tame_residue(SymbolClass.symbol(f * g, h, n=4), P)
        rhs = (tame_residue(SymbolClass.symbol(f, h, n=4), P)
               + tame_residue(SymbolClass.symbol(g, h, n=4), P))
        assert lhs == rhs


def test_steinberg(rng):
    # (f, 1 - f) is trivial, so every residue vanishes
    for _ in range(25):
        f = random_ratfunc(rng, F5)
        if f.is_zero() or f == 1:
            continue
        alpha = SymbolClass.symbol(f, 1 - f, n=4)
        for P in ramification_divisor(alpha).places():
            assert tame_residue(alpha, P).value == 0
        assert not ramification_divisor(alpha).places()


def test_antisymmetry(rng):
    for _ in range(25):
        P = random_place(rng, F13)
        f = random_ratfunc(rng, F13)
        g = random_ratfunc(rng, F13)
        lhs = tame_residue(SymbolClass.symbol(f, g, n=4), P)
        rhs = tame_residue(SymbolClass.symbol(g, f, n=4), P)
        assert lhs + rhs == ResidueClass(4, 0, F13.zeta(4))


def test_ramification_divisor_example():
    alpha = SymbolClass.symbol(T5, RatFunc.constant(F5, 2), n=2)
    D = ramification_divisor(alpha)
    assert set(D.places()) == {PLACE_T, INF5}
    assert D[PLACE_T] == ResidueClass(2, 1, F5.zeta(2))
    assert tame_residue(alpha, Place(F5, Poly.gen(F5) + 1)).is_zero()


def test_ramification_divisor_of_square_class_is_empty():
    alpha = SymbolClass.symbol(T5, RatFunc.constant(F5, 4), n=2)
    assert not ramification_divisor(alpha).places()


def test_symbol_sum_addition():
    a = SymbolClass.symbol(T5, T5 + 1, n=2)
    b = SymbolClass.symbol(T5 + 2, T5 + 3, n=2)
    total = a + b
    P = Place(F5, Poly.gen(F5) + 2)
    assert tame_residue(total, P) == tame_residue(a, P) + tame_residue(b, P)


def test_reciprocity_single_symbols(rng):
    for _ in range(30):
        f = random_ratfunc(rng, F5)
        g = random_ratfunc(rng, F5)
        alpha = SymbolClass.symbol(f, g, n=4)
        assert reciprocity_sum(alpha).value == 0


def test_reciprocity_with_higher_degree_places():
    # ramified at the degree-2 place t^2 + 2, so corestriction matters
    f = RatFunc(Poly.gen(F5) ** 2 + 2)
    alpha = SymbolClass.symbol(f, T5 + 1, n=2)
    places = ramification_divisor(alpha).places()
    assert any(P.degree == 2 for P in places)
    assert reciprocity_sum(alpha).value == 0


def test_cocycle_route_matches_tame(rng):
    for q, n in ((5, 2), (5, 4), (13, 2), (13, 4)):
        F = FiniteField(q)
        P = Place(F, Poly.gen(F))
        pi = RatFunc.gen(F)
        for j in range(n):
            for _ in range(5):
                u = random_unit_at(rng, F, P)
                alpha = SymbolClass.symbol(pi ** j, u, n=n)
                assert residue_cocycle_route(j, u, P, n) == \
                    tame_residue(alpha, P)


def test_cocycle_route_rejects_non_unit():
    with pytest.raises(ValueError, match="unit"):
        residue_cocycle_route(1, T5, PLACE_T, 2)


def test_tame_residue_reads_each_argument_once(monkeypatch):
    # the valuation and the remainders the norm is taken from come from one
    # read per argument, also where the other argument's valuation is not 0
    reads = []

    def counted(f, P):
        reads.append(f)
        return _divide_out_pi(f, P)

    monkeypatch.setattr(residues, "_divide_out_pi", counted)
    T13 = RatFunc.gen(F13)
    alpha = SymbolClass.symbol((T13 + 1) ** 2 * (T13 + 3), T13 + 2, n=4)
    P = Place(F13, Poly.gen(F13) + 1)
    assert tame_residue(alpha, P) == residue_cocycle_route(2, T13 + 2, P, 4)
    assert len(reads) == 2


def test_tame_unit_matches_ratfunc_reference(rng):
    # the reference builds the tame unit in F_q(t), reduces it once into
    # kappa(P) and takes its norm there; _tame_norm reads it in F_q
    for F in (F5, FiniteField(7), F13):
        for P in local_test_places(rng, F):
            pi = P.uniformizer()
            for _ in range(6):
                a = random_ratfunc(rng, F, 3) * pi ** rng.randrange(-2, 3)
                b = random_ratfunc(rng, F, 3) * pi ** rng.randrange(-2, 3)
                va, vb = valuation(a, P), valuation(b, P)
                sign = -1 if (va * vb) % 2 else 1
                ref = sign * a ** vb * b ** -va
                reads = _divide_out_pi(a, P), _divide_out_pi(b, P)
                assert _tame_norm(P, *reads) == \
                    norm_to_prime_field(reduce_at(ref, P)).key()


def test_cocycle_route_checks_epsilon_identity_once_per_key(monkeypatch):
    calls, tables = [], []
    real_checked, real_table = (cohomology._epsilon_checked,
                                cohomology.epsilon_cocycle)

    def counted(n, power=1):
        calls.append((n, power))
        return real_checked(n, power=power)

    def table(n, power=1):
        tables.append((n, power))
        return real_table(n, power)

    monkeypatch.setattr(residues, "_epsilon_checked", counted)
    monkeypatch.setattr(cohomology, "epsilon_cocycle", table)
    residues._epsilon_edge.cache_clear()
    P = Place(F13, Poly.gen(F13))
    u = RatFunc.gen(F13) + 2
    for j in (1, 2, 5, 6, 9, -3):
        residue_cocycle_route(j, u, P, 4)
    assert calls == [(4, 1), (4, 2)]
    assert tables == calls  # one n^2 table per key, the one checked
    # a failing identity still raises, and failures are not cached
    monkeypatch.setattr(residues, "_epsilon_checked",
                        lambda n, power=1: (real_table(n, power), False))
    residues._epsilon_edge.cache_clear()
    with pytest.raises(RuntimeError, match="coboundary identity"):
        residue_cocycle_route(1, u, P, 4)
    monkeypatch.undo()
    assert residue_cocycle_route(1, u, P, 4) == \
        tame_residue(SymbolClass.symbol(RatFunc.gen(F13), u, n=4), P)


def test_places_without_residue_field_raise_not_implemented():
    # over F_25 a non-unit is rejected first; a finite place then has no kappa
    F25 = FiniteField(5, 2)
    t = RatFunc.gen(F25)
    P = Place(F25, Poly.gen(F25) + 1)
    with pytest.raises(ValueError, match="unit"):
        residue_cocycle_route(1, t + 1, P, 2)
    with pytest.raises(NotImplementedError):
        residue_cocycle_route(1, t + 2, P, 2)
    with pytest.raises(NotImplementedError):
        tame_residue(SymbolClass.symbol(t + 1, t + 2, n=2), P)
    with pytest.raises(NotImplementedError):
        reciprocity_sum(SymbolClass.symbol(t + 1, t + 2, n=2))
    # only infinity is a candidate place for constants
    two, three = RatFunc.constant(F25, 2), RatFunc.constant(F25, 3)
    assert reciprocity_sum(SymbolClass.symbol(two, three, n=2)).is_zero()


def _reference_unit(a, b, P):
    """The tame unit built in F_q(t) at every place and reduced once."""
    va, vb = valuation(a, P), valuation(b, P)
    return reduce_at((-1 if (va * vb) % 2 else 1) * a ** vb * b ** -va, P)


def _divisor_route_sums(rng):
    """Seeded symbol sums over F_5, F_7 and F_13 whose arguments share
    places of degree 1 to 3 to multiplicities up to 3, with constants."""
    for F, ns in ((F5, (2, 4)), (FiniteField(7), (3, 6)), (F13, (4, 12))):
        shared = [P.uniformizer() for P in local_test_places(rng, F)[:-1]]
        for _ in range(4):
            def argument():
                if rng.random() < 0.2:
                    return RatFunc.constant(F, rng.randrange(1, F.p))
                f = random_ratfunc(rng, F, 2)
                for pi in rng.sample(shared, 2):
                    f = f * pi ** rng.randrange(-3, 4)
                return f

            terms = [(argument(), argument(), rng.randrange(1, 4))
                     for _ in range(rng.randrange(2, 5))]
            yield SymbolClass(rng.choice(ns), terms)


def test_divisor_route_matches_every_term_at_every_place(rng):
    seen = set()
    for alpha in _divisor_route_sums(rng):
        F, n = alpha.field, alpha.n
        # the candidate places as public, checked places, then infinity
        finite = {Place(F, g) for a, b, _ in alpha.terms for f in (a, b)
                  for part in (f.num, f.den) if part.degree > 0
                  for g, _ in part.factor()}
        places = sorted(finite, key=Place.key) + [Place.infinity(F)]
        assert residues._candidate_places(alpha) == places
        expected, total = {}, 0
        for P in places:
            expected[P] = tame_residue(alpha, P)
            units = [(m, _reference_unit(a, b, P)) for a, b, m in alpha.terms]
            assert expected[P] == sum(
                (m * power_residue_character(u, n) for m, u in units),
                ResidueClass(n, 0, P.residue_field().zeta(n)))
            total += sum(m * corestrict(u, n).value for m, u in units)
            vals = [(valuation(a, P), valuation(b, P))
                    for a, b, _ in alpha.terms]
            seen.add(("degree", P.degree))
            seen.add(("repeated", max(abs(v) for vv in vals for v in vv) > 1))
            seen.add(("shared", sum(vv != (0, 0) for vv in vals) > 1))
        assert ramification_divisor(alpha) == RamificationDivisor(expected)
        assert reciprocity_sum(alpha) == ResidueClass(n, total, F.zeta(n))
        assert reciprocity_sum(alpha).is_zero()
        seen.add(("constant", any(f.is_constant() for a, b, _ in alpha.terms
                                  for f in (a, b))))
    assert {("degree", 2), ("degree", 3), ("repeated", True),
            ("shared", True), ("constant", True)} <= seen


def test_divisor_route_raises_not_implemented_at_first_finite_place():
    F25 = FiniteField(5, 2)
    t = RatFunc.gen(F25)
    for alpha in (SymbolClass.symbol(t + 1, t + 2, n=2),
                  SymbolClass(2, [(RatFunc.constant(F25, 2), t + 3),
                                  (t, t + 1)])):
        for whole_sum in (ramification_divisor, reciprocity_sum):
            with pytest.raises(NotImplementedError):
                whole_sum(alpha)
    two, three = RatFunc.constant(F25, 2), RatFunc.constant(F25, 3)
    alpha = SymbolClass.symbol(two, three, n=2)
    assert ramification_divisor(alpha) == RamificationDivisor(
        {Place.infinity(F25): tame_residue(alpha, Place.infinity(F25))})


def _kappa_tame_unit(a, b, P, va, vb):
    """The tame unit (-1)^(va*vb) a^vb b^(-va) in kappa(P), each argument's
    unit reduced there: the kappa(P) computation that the norm route
    replaced, kept as its oracle."""
    kappa = P.residue_field()
    unit = kappa.one()
    if vb:
        unit = kappa.from_key(_unit_key(a, P)[1]) ** vb
    if va:
        unit = unit * kappa.from_key(_unit_key(b, P)[1]) ** -va
    return -unit if (va * vb) % 2 else unit


def _oracle_sums(rng):
    """Seeded symbol sums over F_5, F_7 and F_13 whose arguments have zeros
    and poles at places of degree 1 to 4, with the places: one random
    place of each degree, then infinity."""
    for F, ns in ((F5, (2, 4)), (FiniteField(7), (2, 3, 6)),
                  (F13, (2, 4, 12))):
        places = local_test_places(rng, F, (1, 2, 3, 4))
        pis = [P.uniformizer() for P in places[:-1]]
        for _ in range(3):
            def argument():
                if rng.random() < 0.2:
                    return RatFunc.constant(F, rng.randrange(1, F.p))
                f = random_ratfunc(rng, F, 2)
                for pi in rng.sample(pis, 2):
                    f = f * pi ** rng.randrange(-2, 3)
                return f

            n = rng.choice(ns)
            terms = [(argument(), argument(), rng.randrange(1, n))
                     for _ in range(rng.randrange(1, 4))]
            yield SymbolClass(n, terms), places


def test_norm_route_matches_kappa_oracle(rng):
    seen = set()
    for alpha, places in _oracle_sums(rng):
        F, n = alpha.field, alpha.n
        candidates = residues._candidate_places(alpha)
        expected, total = {}, 0
        for P in sorted(set(places) | set(candidates), key=Place.key):
            kappa = P.residue_field()
            units = [(m, _kappa_tame_unit(a, b, P, valuation(a, P),
                                          valuation(b, P)))
                     for a, b, m in alpha.terms]
            want = ResidueClass(n, sum(m * power_residue_character(u, n).value
                                       for m, u in units), kappa.zeta(n))
            got = tame_residue(alpha, P)
            assert got == want and got.zeta == want.zeta
            if P in candidates:
                expected[P] = want
                total += sum(m * corestrict(u, n).value for m, u in units)
            for a, b, _ in alpha.terms:
                vals = (valuation(a, P), valuation(b, P))
                seen.add(("degree", "inf" if P.is_infinity else P.degree))
                seen.add(("valuations", sum(v != 0 for v in vals)))
        assert ramification_divisor(alpha) == RamificationDivisor(expected)
        assert reciprocity_sum(alpha) == ResidueClass(n, total, F.zeta(n))
    assert {("degree", d) for d in (1, 2, 3, 4, "inf")} | {
        ("valuations", k) for k in (0, 1, 2)} <= seen


def test_residue_is_the_order_of_the_cyclic_cover(rng):
    # the residue r at P is the class of the cyclic cover kappa(P)[X]/(X^n -
    # u), u the tame unit in kappa(P): Frobenius moves the roots by X ->
    # zeta^r X, so every irreducible factor of X^n - u has degree n/gcd(r, n)
    seen = set()
    for F, ns in ((F5, (2, 4)), (FiniteField(7), (2, 3, 6)),
                  (F13, (2, 3, 4, 6))):
        pis = [P.uniformizer() for P in local_test_places(rng, F)[:-1]]
        for n in ns:
            for _ in range(3):
                terms = []
                for _ in range(rng.randrange(1, 3)):
                    a, b = (random_ratfunc(rng, F, 2)
                            * rng.choice(pis) ** rng.randrange(-2, 3)
                            for _ in range(2))
                    terms.append((a, b, rng.randrange(1, n)))
                alpha = SymbolClass(n, terms)
                for P, r in ramification_divisor(alpha).items():
                    kappa = P.residue_field()
                    u = kappa.one()
                    for a, b, m in terms:
                        u = u * _kappa_tame_unit(a, b, P, valuation(a, P),
                                                 valuation(b, P)) ** m
                    cover = Poly(kappa, [-u] + [kappa.from_key(0)] * (n - 1)
                                 + [kappa.one()])
                    degrees = {g.degree for g, _ in cover.factor()}
                    assert degrees == {n // gcd(r.value, n)}, (alpha, P)
                    seen.add((n, "inf" if P.is_infinity else P.degree))
    assert {d for _, d in seen} == {1, 2, 3, "inf"}
    assert {n for n, _ in seen} == {2, 3, 4, 6}
    assert len(seen) >= 12


def test_residue_paths_run_no_arithmetic_in_kappa(wide_key_ops, rng):
    sums = [(alpha, [P for P in places if P.degree >= 2])
            for alpha, places in _oracle_sums(rng)]
    wide_key_ops.clear()
    for alpha, places in sums:
        for P in places:
            tame_residue(alpha, P)
        ramification_divisor(alpha)
        reciprocity_sum(alpha)
    assert wide_key_ops == []
    # the watch sees kappa(P) arithmetic where it happens
    P = sums[0][1][0]
    residue_cocycle_route(1, RatFunc.constant(P.field, 2), P, 2)
    assert wide_key_ops


def test_sums_with_fresh_factors_leave_the_field_cache_alone(rng):
    # a place read off a factorization builds kappa(P) without caching it:
    # only FiniteField() fills the cache, so new factors do not grow it
    fresh = []
    while len(fresh) < 6:
        d = rng.randrange(2, 6)
        pi = Poly(F13, [rng.randrange(13) for _ in range(d)] + [1])
        if (13, d, pi.coeffs) not in _FIELD_CACHE and pi.is_irreducible():
            fresh.append(pi)
    size = len(_FIELD_CACHE)
    text = (f"({fresh[0]}, ({fresh[1]})*({fresh[2]}))_4 "
            f"- 3*(({fresh[3]})/({fresh[4]}), {fresh[5]})_4")
    alpha = parse_symbol_sum(text, F13)
    divisor = ramification_divisor(alpha)
    assert reciprocity_sum(alpha).is_zero()
    places = [P for P in divisor.entries if P.degree > 1]
    assert {P.poly for P in places} <= set(fresh) and len(places) >= 3
    for P in places:
        assert tame_residue(alpha, P) == divisor[P]
        assert P.residue_field().order == 13 ** P.degree
    assert len(_FIELD_CACHE) == size
