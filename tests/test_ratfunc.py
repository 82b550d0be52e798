import pytest

from brauer import (FiniteField, ParseError, Place, Poly, RatFunc,
                    parse_place, reduce_at, valuation)
from brauer.finitefield import norm_to_prime_field
from brauer.ratfunc import (_divide_out_pi, _divisor, _unit_key, _unit_norm,
                            degree_one_place, support)

from conftest import local_test_places, random_place, random_ratfunc


F5 = FiniteField(5)
F7 = FiniteField(7)
T5 = RatFunc.gen(F5)
T7 = RatFunc.gen(F7)


def _local_norm(f, P):
    """(v, N): the valuation and the unit's norm from one read of f at P."""
    v, rn, rd = _divide_out_pi(f, P)
    return v, _unit_norm(P, rn, rd)


def test_normalization():
    f = RatFunc(Poly(F5, [0, 2]), Poly(F5, [0, 0, 4]))
    # 2t / 4t^2 = 3/t after making the denominator monic and cancelling
    assert f.num == Poly.constant(F5, 3)
    assert f.den == Poly.gen(F5)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(Poly.one(F5), Poly.zero(F5))


def test_field_operations(rng):
    for _ in range(30):
        f = random_ratfunc(rng, F7)
        g = random_ratfunc(rng, F7)
        assert (f + g) - g == f
        if not g.is_zero():
            assert (f * g) / g == f
        assert f * 1 == f
        assert f + 0 == f


def test_pow_negative():
    f = T5 + 1
    assert f ** -2 == RatFunc(Poly.one(F5), (Poly.gen(F5) + 1) ** 2)
    assert f ** 0 == RatFunc.one(F5)


def test_equality_with_other_types_and_fields():
    F13 = FiniteField(13)
    one = RatFunc.one(F5)
    assert one == 1 and one == F5.element(1) and one == Poly.one(F5)
    assert one != F13.element(1) and not one == F13.element(1)
    assert one != Poly.one(F13) and one != RatFunc.one(F13)
    assert 1 / T5 != Poly.one(F5) and T5 == Poly.gen(F5)


def test_equality_is_symmetric_across_types():
    F13 = FiniteField(13)
    equal = [(Poly.gen(F5), T5), (F5.element(1), Poly.one(F5)),
             (F5.element(1), RatFunc.one(F5)), (F5.element(3), Poly(F5, [3])),
             (F5.element(0), RatFunc.constant(F5, 0)), (Poly(F5, [1, 2]),
                                                        T5 * 2 + 1)]
    unequal = [(Poly.gen(F5), 1 / T5), (F5.element(1), Poly.gen(F5)),
               (F5.element(2), RatFunc.one(F5)), (Poly.gen(F5), T7),
               (F13.element(1), Poly.one(F5)), (F13.element(1), T5 ** 0),
               (Poly.one(F5), "1"), (T5, None), (F5.element(1), "1")]
    for a, b in equal:
        assert a == b and b == a and not a != b and not b != a, (a, b)
    for a, b in unequal:
        assert a != b and b != a and not a == b and not b == a, (a, b)
    # a RatFunc with denominator 1 hashes like its numerator
    for poly in (Poly.gen(F5), Poly(F5, [1, 2, 3]), Poly.one(F5)):
        assert hash(RatFunc(poly)) == hash(poly)
        assert len({poly, RatFunc(poly)}) == 1
    assert len({Poly.gen(F5), T5, 1 / T5}) == 2


def test_equal_constants_hash_alike():
    for F in (F5, FiniteField(5, 2)):
        for c in (0, 1, 3):
            equal = {F.element(c), Poly.constant(F, c),
                     RatFunc.constant(F, c)}
            assert len(equal) == 1, (F, c)


def test_place_construction_requires_monic_irreducible():
    with pytest.raises(ValueError, match="irreducible"):
        Place(F5, Poly.gen(F5) ** 2 - 1)
    with pytest.raises(ValueError, match="monic"):
        Place(F5, Poly(F5, [0, 2]))


def test_reducible_place_of_degree_three_rejected():
    t = Poly.gen(F5)
    reducible = (t + 1) * (t ** 2 + 2)
    with pytest.raises(ValueError, match="irreducible"):
        Place(F5, reducible)
    with pytest.raises(ParseError, match="irreducible"):
        parse_place(repr(reducible), F5)
    assert Place(F5, t ** 3 + t + 1).residue_field().order == 125


def test_places_over_non_prime_base_field():
    F25 = FiniteField(5, 2)
    t = Poly.gen(F25)
    with pytest.raises(ValueError, match="irreducible"):
        Place(F25, t ** 2 - 1)
    P = Place(F25, t + 1)
    with pytest.raises(NotImplementedError):
        P.residue_field()
    assert Place.infinity(F25).residue_field() is F25
    # a valuation needs no residue field; reduce_at rejects a non-unit
    # before it finds that kappa(P) is not built
    T = RatFunc.gen(F25)
    assert valuation((T + 1) ** 2 / (T + 2), P) == 2
    assert _unit_key(T + 2, P) == (0, None)
    with pytest.raises(ValueError, match="not a unit"):
        reduce_at(T + 1, P)
    with pytest.raises(NotImplementedError):
        reduce_at(T + 2, P)
    inf = Place.infinity(F25)
    assert reduce_at((2 * T + 1) / (T + 3), inf) == F25.element(2)
    # the norm needs kappa(P) as well, but not at infinity
    with pytest.raises(NotImplementedError):
        _local_norm(T + 2, P)
    assert _local_norm((2 * T + 1) / (T + 3), inf) == (0, 2)


def test_place_degrees():
    assert Place(F5, Poly.gen(F5)).degree == 1
    assert Place(F5, Poly.gen(F5) ** 2 + 2).degree == 2
    assert Place.infinity(F5).degree == 1


def test_valuation_finite():
    # t^2 (t+1) / (t+2)  at the place t
    f = T5 ** 2 * (T5 + 1) / (T5 + 2)
    P = Place(F5, Poly.gen(F5))
    assert valuation(f, P) == 2
    assert valuation(f, Place(F5, Poly.gen(F5) + 2)) == -1
    assert valuation(f, Place(F5, Poly.gen(F5) + 1)) == 1
    assert valuation(f, Place(F5, Poly.gen(F5) + 4)) == 0


def test_valuation_infinity():
    inf = Place.infinity(F5)
    assert valuation(T5 ** 2 + 1, inf) == -2
    assert valuation(1 / (T5 ** 3), inf) == 3
    assert valuation(RatFunc.constant(F5, 2), inf) == 0


def test_valuation_of_zero_rejected():
    for P in (Place.infinity(F5), Place(F5, Poly.gen(F5) ** 2 + 2)):
        for read in (valuation, _unit_key):
            with pytest.raises(ValueError, match="valuation of zero"):
                read(RatFunc.zero(F5), P)


def test_valuation_additive(rng):
    for _ in range(30):
        f = random_ratfunc(rng, F5)
        g = random_ratfunc(rng, F5)
        P = random_place(rng, F5)
        assert valuation(f * g, P) == valuation(f, P) + valuation(g, P)


def test_residue_field_degree_two():
    P = Place(F5, Poly.gen(F5) ** 2 + 2)
    kappa = P.residue_field()
    assert kappa.order == 25


def test_reduce_at_finite():
    P = Place(F5, Poly.gen(F5) + 1)  # t = -1 = 4
    f = (T5 ** 2 + 1) / (T5 + 2)
    # (16 + 1) / (4 + 2) = 2 / 1 = 2 in F_5
    assert reduce_at(f, P) == P.residue_field().element(2)


def test_reduce_at_infinity():
    inf = Place.infinity(F5)
    f = (3 * T5 ** 2 + 1) / (2 * T5 ** 2 + T5)
    assert reduce_at(f, inf) == F5.element(3) / F5.element(2)


def test_reduce_at_non_unit_rejected():
    P = Place(F5, Poly.gen(F5))
    with pytest.raises(ValueError, match="unit"):
        reduce_at(T5, P)
    with pytest.raises(ValueError, match="unit"):
        reduce_at(1 / T5, P)
    with pytest.raises(ValueError, match="unit"):
        reduce_at(RatFunc.zero(F5), P)


def test_uniformizer_valuations(rng):
    for _ in range(10):
        P = random_place(rng, F5)
        assert valuation(P.uniformizer(), P) == 1
    assert valuation(Place.infinity(F5).uniformizer(), Place.infinity(F5)) == 1


def test_support():
    f = T5 * (T5 + 1) / (T5 ** 2 + 2)
    places = support(f)
    assert Place(F5, Poly.gen(F5)) in places
    assert Place(F5, Poly.gen(F5) + 1) in places
    assert Place(F5, Poly.gen(F5) ** 2 + 2) in places
    assert Place.infinity(F5) not in places  # degree num == degree den
    assert places == sorted(places, key=lambda P: P.key())


def test_support_places_match_public_places(rng):
    # the places of a divisor skip the irreducibility re-proof, but equal
    # the checked ones, in factor order, with the very same kappa(P)
    for F in (F5, F7, FiniteField(13)):
        for _ in range(8):
            pi = random_place(rng, F, 3).uniformizer()
            f = random_ratfunc(rng, F, 5) * pi ** rng.randrange(1, 4)
            public = [(Place(F, g), sign * m)
                      for part, sign in ((f.num, 1), (f.den, -1))
                      if part.degree > 0 for g, m in part.factor()]
            assert support(f) == [P for P, _ in public]
            assert list(_divisor(f).items()) == public
            for P, Q in zip(support(f), (P for P, _ in public)):
                assert P.residue_field() is Q.residue_field()
                assert _divisor(f)[P] == valuation(f, Q)
    F25 = FiniteField(5, 2)
    t = RatFunc.gen(F25)
    (P, v), = _divisor((t + 1) ** 3).items()
    assert v == 3 and P == Place(F25, Poly.gen(F25) + 1)
    with pytest.raises(NotImplementedError):
        P.residue_field()


def test_proved_places_leave_reducible_moduli_rejected():
    # t^4 + 1 = (t^2 + 2)(t^2 + 3) over F_5: its factors' fields are built
    # without a second test, and the product is still refused everywhere
    t = Poly.gen(F5)
    quartic = (t ** 2 + 2) * (t ** 2 + 3)
    assert quartic == t ** 4 + 1
    assert [P.residue_field().order for P in support(RatFunc(quartic))] \
        == [25, 25]
    with pytest.raises(ValueError, match="irreducible"):
        Place(F5, quartic)
    with pytest.raises(ValueError, match="irreducible"):
        FiniteField(5, 4, quartic.coeffs)
    with pytest.raises(ParseError, match="irreducible"):
        parse_place("t^4+1", F5)
    assert FiniteField(5, 2, (2, 0, 1)) is support(RatFunc(quartic))[0] \
        .residue_field()


def test_degree_one_place():
    P = degree_one_place(F7, F7.element(3))
    assert P.poly == Poly.gen(F7) - 3


def _at_root(g: Poly, P: Place):
    """g evaluated at the image of t in kappa(P), by Horner's rule."""
    kappa = P.residue_field()
    x = (kappa.element([0, 1]) if P.degree > 1
         else -P.poly.coefficient(0))
    acc = kappa.zero()
    for i in range(g.degree, -1, -1):
        acc = acc * x + g.coefficient(i).coeffs[0]
    return acc


def test_local_unit_matches_valuation_and_reduction(rng):
    for F in (F5, F7, FiniteField(13)):
        for P in local_test_places(rng, F):
            pi = P.uniformizer()
            for _ in range(8):
                k = rng.randrange(-3, 4)
                f = random_ratfunc(rng, F, max_deg=3) * pi ** k
                v, key = _unit_key(f, P)
                g = f * pi ** -v
                assert (v, key) == (valuation(f, P), reduce_at(g, P).key())
                if P.is_infinity:
                    assert g.num.degree == g.den.degree
                    assert key == (g.num.leading_coefficient()
                                   / g.den.leading_coefficient()).key()
                else:
                    # g is a unit at P exactly when neither part vanishes
                    # at the root of pi, and its image is the quotient
                    u = _at_root(g.num, P) / _at_root(g.den, P)
                    assert key == u.key()


def test_local_norm_is_norm_of_local_unit(rng):
    # the norm of the unit in kappa(P), by a power there, against the
    # resultants of pi and the remainders in F_q
    for F in (F5, F7, FiniteField(13)):
        for P in local_test_places(rng, F, (1, 2, 3, 4)):
            pi = P.uniformizer()
            for _ in range(8):
                k = rng.randrange(-3, 4)
                f = random_ratfunc(rng, F, max_deg=5) * pi ** k
                v, key = _unit_key(f, P)
                u = P.residue_field().from_key(key)
                assert _local_norm(f, P) == (v, norm_to_prime_field(u).key())


@pytest.mark.parametrize("q", [5, 13, 10 ** 18 + 3])
def test_rational_place_reads_match_evaluation(rng, q):
    # at t - c the unit's image is read off Horner passes at c, and at
    # infinity off the leading keys; the reference divides f by the
    # expected power of the uniformizer in F_q(t) and evaluates what is
    # left, with no division by pi
    F = FiniteField(q)
    t = Poly.gen(F)
    cs = range(q) if q < 100 else [0, 1, q - 1] + [rng.randrange(q)
                                                   for _ in range(5)]
    places = [(Place(F, t - c), F.element(c)) for c in cs]
    places.append((Place.infinity(F), None))
    for P, c in places:
        pi, seen = P.uniformizer(), set()
        for trial in range(12):
            # zeros and poles of order up to 3 at P and at another place,
            # and constants
            a, b = rng.randrange(4), rng.randrange(4)
            if trial < 2:
                a = b = 0
            n0, d0 = (_unit_part(rng, F, P, c, trial < 2) for _ in range(2))
            if trial % 3 == 2:  # (t - c1)^m / (t - c2)^m, a unit at P
                c1, c2 = (0, 1) if c is None else (c + 1, c + 2)
                n0 = n0 * (RatFunc(t - c1) / (t - c2)) ** rng.randrange(1, 4)
            f = n0 / d0 * pi ** a / pi ** b
            v = a - b
            g = f * pi ** -v
            if P.is_infinity:
                assert g.num.degree == g.den.degree
                u = g.num.leading_coefficient() / g.den.leading_coefficient()
            else:
                un, ud = g.num.evaluate(c), g.den.evaluate(c)
                assert not un.is_zero() and not ud.is_zero()
                u = un / ud
            assert valuation(f, P) == v
            assert _unit_key(f, P) == (v, u.key())
            assert _local_norm(f, P) == (v, u.key())
            seen.add((v < 0, v > 0, f.is_constant()))
        assert {(True, False, False), (False, True, False),
                (False, False, True)} <= seen


def _unit_part(rng, F, P, c, constant):
    """A nonzero rational function of degree <= 3 with no zero or pole at
    P (degree 0 at infinity: equal degrees), or a constant."""
    while True:
        if constant:
            return RatFunc.constant(F, rng.randrange(1, F.order))
        g = random_ratfunc(rng, F, 3)
        if P.is_infinity:
            g = g * RatFunc.gen(F) ** (g.den.degree - g.num.degree)
            if g.num.degree == g.den.degree and not g.is_zero():
                return g
        elif (not g.is_zero() and not g.num.evaluate(c).is_zero()
              and not g.den.evaluate(c).is_zero()):
            return g
