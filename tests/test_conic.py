import itertools
import sys

import pytest

from brauer import (
    ConicBundle,
    ConicModelError,
    FiniteField,
    Place,
    Poly,
    RatFunc,
    TableSizeError,
    check_artin,
    component_torsor,
    count_fiber_points,
    ramification_divisor,
    tame_residue,
)
from brauer import conic, finitefield
from brauer.conic import degenerate_places
from brauer.finitefield import _FIELD_CACHE, power_residue_character
from brauer.ratfunc import _unit_norm, reduce_at, valuation

from conic_reference import (extension_with_embedding, key_reference_count,
                             minimize_at)
from conftest import (local_test_places, random_place, random_poly,
                      random_ratfunc, random_unit_at)


F5 = FiniteField(5)
T5 = RatFunc.gen(F5)
PLACE_T = Place(F5, Poly.gen(F5))
INF5 = Place.infinity(F5)


def test_constructor_validation():
    with pytest.raises(ConicModelError, match="odd"):
        ConicBundle(RatFunc.gen(FiniteField(2)), RatFunc.one(FiniteField(2)))
    with pytest.raises(ConicModelError, match="nonzero"):
        ConicBundle(RatFunc.zero(F5), T5)


def test_minimize_at_strips_even_valuations():
    C = ConicBundle(2 * T5 ** 3, 3 * T5 ** 2)
    a0, b0, _ = minimize_at(C, PLACE_T)
    assert a0 == 2 * T5
    assert b0 == RatFunc.constant(F5, 3)


def test_minimize_at_double_uniformizer():
    # both coefficients have odd valuation: switch to (a, -ab)
    C = ConicBundle(2 * T5, 3 * T5)
    a0, b0, _ = minimize_at(C, PLACE_T)
    assert a0 == 2 * T5
    assert b0 == RatFunc.constant(F5, -6)


def test_discriminant_and_degenerate_places():
    C = ConicBundle(T5, RatFunc.constant(F5, 2))
    assert ramification_divisor(C.symbol()).places() == [PLACE_T, INF5]
    assert degenerate_places(C) == [PLACE_T, INF5]


def test_component_torsor_values():
    C = ConicBundle(T5, RatFunc.constant(F5, 2))
    assert component_torsor(C, PLACE_T).value == 1
    C2 = ConicBundle(T5, RatFunc.constant(F5, 4))
    assert component_torsor(C2, PLACE_T).value == 0


def test_component_torsor_rejects_smooth_fiber():
    C = ConicBundle(T5, RatFunc.constant(F5, 2))
    with pytest.raises(ConicModelError, match="smooth"):
        component_torsor(C, Place(F5, Poly.gen(F5) + 1))


def test_fiber_point_counts():
    C = ConicBundle(T5, RatFunc.constant(F5, 2))
    # nonsplit degenerate fiber: only the singular point
    assert count_fiber_points(C, PLACE_T) == 1
    # split after the quadratic extension: two lines, 2Q + 1 points
    assert count_fiber_points(C, PLACE_T, e=2) == 2 * 25 + 1
    # smooth fiber over F_5 is a smooth conic with q + 1 points
    assert count_fiber_points(C, Place(F5, Poly.gen(F5) + 1)) == 6


def test_split_degenerate_fiber():
    C = ConicBundle(T5, RatFunc.constant(F5, 4))
    assert component_torsor(C, PLACE_T).value == 0
    assert count_fiber_points(C, PLACE_T) == 2 * 5 + 1


def _tuple_mul(a, b, modulus, p):
    """Product of coefficient tuples modulo the monic ``modulus``."""
    d = len(modulus) - 1
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k] % p
        for j in range(d + 1):
            prod[k - d + j] -= c * modulus[j]
    return tuple(c % p for c in prod[:d])


def _brute_force_points(A, B, L):
    """Projective points (x:y:z) of A x^2 + B y^2 = z^2 over L, one
    normalized triple per point: (x:y:1), (x:1:0) and (1:0:0)."""
    p, d = L.p, L.d

    def mul(u, v):
        return _tuple_mul(u, v, L.modulus, p)

    zero, one = (0,) * d, (1,) + (0,) * (d - 1)
    elems = list(itertools.product(range(p), repeat=d))
    triples = ([(x, y, one) for x in elems for y in elems]
               + [(x, one, zero) for x in elems] + [(one, zero, zero)])
    count = 0
    for x, y, z in triples:
        lhs = tuple((u + v) % p for u, v in zip(mul(A, mul(x, x)),
                                                 mul(B, mul(y, y))))
        count += lhs == mul(z, z)
    return count


def _places_of_degree(rng, F, degree, count):
    places = []
    while len(places) < count:
        P = random_place(rng, F, max_deg=degree)
        if P.degree == degree and P not in places:
            places.append(P)
    return places


def test_fiber_point_counts_match_brute_force(rng):
    seen = set()
    for p in (3, 5, 7):
        F = FiniteField(p)
        quads = _places_of_degree(rng, F, 2, 2)
        # over F_3 two cubic places too: L = F_27 at e = 1
        cubics = _places_of_degree(rng, F, 3, 2) if p == 3 else []
        odd = quads[0].poly * (cubics[0].poly if cubics else 1)
        places = ([Place(F, Poly(F, [c, 1])) for c in range(p)]
                  + [Place.infinity(F)] + quads + cubics)
        for _ in range(2):
            # the factor odd makes the fibers at quads[0] and cubics[0]
            # degenerate
            a = RatFunc(odd * random_poly(rng, F, 2), random_poly(rng, F, 2))
            b = RatFunc(random_poly(rng, F, 3), random_poly(rng, F, 2))
            try:
                C = ConicBundle(a, b)
            except ConicModelError:
                continue
            degenerate = degenerate_places(C)
            for P in places:
                for e in (1, 2):
                    if (p ** P.degree) ** e > 49:
                        continue
                    L, embed = extension_with_embedding(P.residue_field(), e)
                    abar, bbar = conic._reduced_fiber(C, P)
                    expected = _brute_force_points(
                        L._digits(embed(abar)), L._digits(embed(bbar)), L)
                    assert count_fiber_points(C, P, e) == expected, (C, P, e)
                    seen.add((P in degenerate, P.degree, e))
    assert {(True, 1, 1), (False, 1, 1), (True, 1, 2), (False, 1, 2),
            (True, 2, 1), (False, 2, 1), (True, 3, 1), (False, 3, 1)} <= seen


def test_point_count_reads_no_square_class(monkeypatch):
    # the count is the oracle for the torsor and the residue, so it must
    # not read a quadratic character: with both made to raise, and the
    # log tables built afresh, it still matches brute force
    def refuse(*args, **kwargs):
        raise AssertionError("the point count read a square class")

    for module in (conic, finitefield):
        monkeypatch.setattr(module, "power_residue_character", refuse)
    monkeypatch.setattr(conic, "component_torsor", refuse)
    F7 = FiniteField(7)
    t = Poly.gen(F7)
    quad = Place(F7, next(t ** 2 + c for c in range(7)
                          if (t ** 2 + c).is_irreducible()))
    places = [Place(F7, t), Place(F7, t + 6), Place.infinity(F7), quad]
    for P in places:
        monkeypatch.setattr(P.residue_field(), "_tables", None)
    # 3 is a non-square mod 7: split and non-split degenerate fibers
    bundles = [ConicBundle(RatFunc.gen(F7), RatFunc.constant(F7, c))
               for c in (2, 3)]
    bundles.append(ConicBundle(RatFunc(quad.poly), RatFunc.constant(F7, 3)))
    with pytest.raises(AssertionError, match="square class"):
        check_artin(bundles[1])  # the patches hold on the torsor route
    seen = set()
    for C in bundles:
        degenerate = degenerate_places(C)
        for P in places:
            for e in (1, 2):
                if (7 ** P.degree) ** e > 49:
                    continue
                L, embed = extension_with_embedding(P.residue_field(), e)
                abar, bbar = conic._reduced_fiber(C, P)
                expected = _brute_force_points(
                    L._digits(embed(abar)), L._digits(embed(bbar)), L)
                n = count_fiber_points(C, P, e)
                assert n == expected, (C, P, e)
                seen.add((P in degenerate, n))
    assert {(True, 1), (True, 2 * 7 + 1), (True, 2 * 49 + 1),
            (False, 7 + 1), (False, 49 + 1)} <= seen


def _smallest_irreducible(F, d):
    """The monic irreducible of degree d over F with the smallest key."""
    p = F.p
    return next(f for k in range(p ** d) if (f := Poly(
        F, [k // p ** i % p for i in range(d)] + [1])).is_irreducible())


@pytest.mark.parametrize("p,d,e", [(5, 4, 1), (13, 3, 1), (13, 4, 1),
                                   (13, 1, 2)])
def test_degenerate_counts_match_key_reference_past_brute_force(p, d, e):
    # Q = 625, 2197, 28561 and 169, past the brute force's Q <= 49: the
    # count must equal key_reference_count, with every product taken by
    # L._kmul over all keys of L, no log read
    Fp = FiniteField(p)
    pi = _smallest_irreducible(Fp, d)
    P = Place(Fp, pi)
    L, embed = extension_with_embedding(P.residue_field(), e)
    Q = L.order
    t = RatFunc.gen(Fp)
    seen = set()
    for b in (1, -1, 2, t + 1, t + 2, t + 3, t + 4):
        C = ConicBundle(RatFunc(pi), b * RatFunc.one(Fp))
        abar, bbar = conic._reduced_fiber(C, P)
        assert abar == 0 and bbar
        points = key_reference_count(L, embed(bbar))
        assert count_fiber_points(C, P, e) == points, (b, p, d, e)
        seen.add(points)
    # split (c a square) and, over kappa(P) itself, non-split (c not one);
    # over F_{13^2} every element of F_13 is a square
    assert seen == ({2 * Q + 1, 1} if e == 1 else {2 * Q + 1})


def test_degenerate_counts_match_key_reference():
    # derandomized: over F_3, F_5, F_7 and F_13, at t, t + 1, the smallest
    # irreducible quadratic and cubic, and infinity, each bundle with a
    # degenerate fiber there (one valuation odd, either one, or both) for
    # units u, v at P of every constant and a few linear ratios; each count
    # with e in {1, 2, 3} and Q <= 2197 must equal the key reference in
    # the real extension F_Q
    seen = set()
    for p in (3, 5, 7, 13):
        F = FiniteField(p)
        t = RatFunc.gen(F)
        ratios = [(k * t + c) / (t + 2) for k in (1, p - 1) for c in (0, 1)]
        places = ([Place(F, Poly(F, [c, 1])) for c in (0, 1)]
                  + [Place(F, _smallest_irreducible(F, d)) for d in (2, 3)]
                  + [Place.infinity(F)])
        for P in places:
            pi, kappa = P.uniformizer(), P.residue_field()
            units = [u for u in [RatFunc.constant(F, c) for c in range(1, p)]
                     + ratios if valuation(u, P) == 0]
            bundles = [ConicBundle(pi * u, v) for u, v in zip(units, units[1:])]
            bundles += [ConicBundle(u, pi ** 3 * v) for u, v in
                        zip(units, units[2:])]
            bundles += [ConicBundle(pi * u, pi ** -1 * v) for u, v in
                        zip(units, units[3:])]
            for C in bundles:
                assert P in degenerate_places(C)
                abar, bbar = conic._reduced_fiber(C, P)
                for e in (1, 2, 3):
                    if kappa.order ** e > 2197:
                        continue
                    L, embed = extension_with_embedding(kappa, e)
                    n = count_fiber_points(C, P, e)
                    assert n == key_reference_count(L, embed(abar or bbar)), (
                        C, P, e)
                    seen.add((P.degree, e, n == 1))
    # split and non-split fibers at each odd e, including e = 3 at every
    # degree-1 place and over F_3 at degree 2; only split ones at e = 2
    assert {(d, e, True) for d in (1, 2, 3) for e in (1, 3)
            if (d, e) != (3, 3)} <= seen
    assert {(d, e, False) for d in (1, 2, 3) for e in (1, 2, 3)
            if (d, e) != (3, 3)} <= seen
    assert not any(e == 2 and nonsplit for _, e, nonsplit in seen)


def test_count_refuses_extension_degree_below_one():
    # e is checked before the smooth shortcut, on either kind of fiber
    C = ConicBundle(T5, RatFunc.constant(F5, 2))
    for P in (Place(F5, Poly.gen(F5) + 1), PLACE_T):
        for e in (0, -1):
            with pytest.raises(ValueError, match="extension degree"):
                count_fiber_points(C, P, e)


def test_smooth_fiber_is_q_plus_one_past_the_guard():
    # a smooth conic has Q + 1 points by Chevalley-Warning, whatever Q, so
    # the count needs no size guard: at Q = 997 and 1009, on either side of
    # Q^2 = 10^6, at the cubic place of F_13 (Q = 2197) and over
    # q = 10^18 + 3, with no field or table built
    F13 = FiniteField(13)
    pi = _smallest_irreducible(F13, 3)
    cases = [(RatFunc.gen(F13), RatFunc.constant(F13, 2), Place(F13, pi))]
    for q in (997, 1009, 10 ** 18 + 3):
        F = FiniteField(q)
        cases.append((RatFunc.gen(F), RatFunc.constant(F, 2),
                      Place(F, Poly.gen(F) + 1)))
    for a, b, P in cases:
        C = ConicBundle(a, b)
        assert P not in degenerate_places(C)
        kappa = P.residue_field()
        fields, tables = dict(_FIELD_CACHE), kappa._tables
        assert count_fiber_points(C, P) == kappa.order + 1
        assert _FIELD_CACHE == fields and kappa._tables is tables


def test_degenerate_fiber_guard_raises_before_any_build(
        monkeypatch, stop_past_guard):
    # at odd e the count reads kappa(P)'s log table, |kappa(P)| entries:
    # at a degree-6 place of F_13 that is 13^6 > 10^6, refused before any
    # table or field is built; at even e the lines split and the count
    # answers 2Q + 1, here Q = 13^6 at the cubic place, building nothing
    F13 = FiniteField(13)
    P6 = Place(F13, _smallest_irreducible(F13, 6))
    P3 = Place(F13, _smallest_irreducible(F13, 3))
    C = ConicBundle(RatFunc(P6.poly * P3.poly), RatFunc.constant(F13, 2))
    assert {P6, P3} <= set(degenerate_places(C))
    monkeypatch.setattr(P3.residue_field(), "_tables", None)
    fields = dict(_FIELD_CACHE)
    for e in (1, 3):
        with pytest.raises(TableSizeError, match=str(13 ** 6)):
            count_fiber_points(C, P6, e)
    assert count_fiber_points(C, P6, 2) == 2 * 13 ** 12 + 1
    assert count_fiber_points(C, P3, 2) == 2 * 13 ** 6 + 1
    assert _FIELD_CACHE == fields
    assert P6.residue_field()._tables is None
    assert P3.residue_field()._tables is None
    # |kappa(P)| <= 10^6 passes at 999983, the largest prime power with
    # it, and is refused at the next, 1000003, at e = 1 and 3; a passing
    # guard stops the count; at e = 2 both answer
    for q in (999983, 1000003):
        F = FiniteField(q)
        C = ConicBundle(RatFunc.gen(F), RatFunc.constant(F, 2))
        P = Place(F, Poly.gen(F))
        assert P in degenerate_places(C)
        for e in (1, 3):
            with pytest.raises(stop_past_guard if q < 10 ** 6
                               else TableSizeError):
                count_fiber_points(C, P, e)
        assert count_fiber_points(C, P, 2) == 2 * q ** 2 + 1


def _non_default_field(p, d):
    """FiniteField(p, d) under the largest monic irreducible modulus."""
    Fp = FiniteField(p)
    for k in range(p ** d - 1, -1, -1):
        f = [k // p ** i % p for i in range(d)] + [1]
        if Poly(Fp, f).is_irreducible():
            return FiniteField(p, d, f)


@pytest.mark.parametrize("p,d", [(5, 2), (3, 4)])
def test_embedding_is_a_ring_map(rng, p, d):
    # the reference's embedding of kappa into the real extension field
    kappa = _non_default_field(p, d)
    assert kappa is not FiniteField(p, d)
    for e in (1, 2):
        L, embed = extension_with_embedding(kappa, e)
        assert L is FiniteField(p, d * e)
        assert embed(1) == 1
        for _ in range(50):
            u, v = (rng.randrange(kappa.order) for _ in range(2))
            assert embed(kappa._kmul(u, v)) == L._kmul(embed(u), embed(v))
            assert embed(kappa._kadd(u, v)) == L._kadd(embed(u), embed(v))


def test_point_count_tables_one_per_field(monkeypatch):
    # one log table per kappa(P), built by the first count at odd e and
    # read by the later ones; at even e none is built; no count factors
    # a polynomial over an extension (Poly.roots) or adds a field
    F13 = FiniteField(13)
    places = []
    for c in range(13 ** 4):
        f = Poly(F13, [c % 13, c // 13 % 13, c // 169, 0, 1])
        if f.is_irreducible():
            places.append(Place(F13, f))
            if len(places) == 2:
                break
    C = ConicBundle(RatFunc(places[0].poly * places[1].poly),
                    RatFunc.constant(F13, 2))

    def refuse(f):
        raise AssertionError("the point count called Poly.roots")

    monkeypatch.setattr(Poly, "roots", refuse)
    for P in places:
        monkeypatch.setattr(P.residue_field(), "_tables", None)
    fields = dict(_FIELD_CACHE)
    Q2 = 13 ** 8
    assert [count_fiber_points(C, P, 2) for P in places] == [2 * Q2 + 1] * 2
    assert all(P.residue_field()._tables is None for P in places)
    counts = [count_fiber_points(C, P) for P in places]
    tables = [P.residue_field()._tables for P in places]
    assert tables[0] is not None and tables[1] is not None
    assert tables[0] is not tables[1]
    assert [count_fiber_points(C, P) for P in places] == counts
    assert [P.residue_field()._tables for P in places] == tables
    assert _FIELD_CACHE == fields
    for P, n in zip(places, counts):
        split = component_torsor(C, P).is_zero()
        assert n == (2 * 13 ** 4 + 1 if split else 1)


def test_embedding_root_is_smallest_root(rng):
    for p in (3, 5, 13):
        Fp = FiniteField(p)
        for d in (2, 3, 4):
            while True:
                f = Poly(Fp, [rng.randrange(p) for _ in range(d)] + [1])
                if f.is_irreducible():
                    break
            kappa = Place(Fp, f).residue_field()
            for e in (1, 2):
                L, embed = extension_with_embedding(kappa, e)
                roots = Poly(L, kappa.modulus).roots()
                assert embed(kappa.element([0, 1]).key()) == min(
                    r.key() for r in roots)


def test_check_artin_agrees(rng):
    C = ConicBundle(T5, RatFunc.constant(F5, 2))
    rows = check_artin(C)
    assert rows
    for P, geo, res, agree in rows:
        assert agree
        assert geo == res


def test_torsor_matches_tame_residue(rng):
    F13 = FiniteField(13)
    for _ in range(15):
        a = RatFunc(random_poly(rng, F13, 3), random_poly(rng, F13, 2))
        b = RatFunc(random_poly(rng, F13, 3), random_poly(rng, F13, 2))
        try:
            C = ConicBundle(a, b)
        except ConicModelError:
            continue
        alpha = C.symbol()
        for P in degenerate_places(C):
            assert component_torsor(C, P) == tame_residue(alpha, P)


def test_reduced_fiber_matches_minimize_at(rng):
    # the reference reduces minimize_at's model in F_q(t); a coefficient of
    # valuation 1 reduces to zero
    for F in (F5, FiniteField(7), FiniteField(13)):
        for P in local_test_places(rng, F):
            pi, kappa = P.uniformizer(), P.residue_field()
            for _ in range(6):
                a = random_ratfunc(rng, F, 3) * pi ** rng.randrange(-3, 4)
                b = random_ratfunc(rng, F, 3) * pi ** rng.randrange(-3, 4)
                C = ConicBundle(a, b)
                a0, b0, _ = minimize_at(C, P)
                expected = tuple(
                    0 if valuation(c, P) == 1 else reduce_at(c, P).key()
                    for c in (a0, b0))
                assert conic._reduced_fiber(C, P) == expected, (C, P)


def _conics_at_places(rng):
    """Seeded bundles over F_5, F_7 and F_13, each with its places: one
    random place of each degree 1 to 4, then infinity.  At each finite
    place there is a bundle for each parity of the two valuations."""
    for F in (F5, FiniteField(7), FiniteField(13)):
        places = local_test_places(rng, F, (1, 2, 3, 4))
        for P in places[:-1]:
            pi = P.uniformizer()
            for ea, eb in itertools.product((0, 1), repeat=2):
                a, b = (random_unit_at(rng, F, P, 2)
                        * pi ** (e + 2 * rng.randrange(-1, 2))
                        for e in (ea, eb))
                yield ConicBundle(a, b), places


def test_torsor_matches_kappa_oracle(rng):
    # the oracle reads the square class of the reduced fiber's unit by an
    # Euler power in kappa(P); component_torsor reads the character of its
    # resultant norm in F_q, so the two share only _reduced_fiber
    seen = set()
    for C, places in _conics_at_places(rng):
        for P in places:
            abar, bbar = conic._reduced_fiber(C, P)
            parity = (valuation(C.a, P) % 2, valuation(C.b, P) % 2)
            seen.add(("inf" if P.is_infinity else P.degree, parity))
            if parity == (0, 0):
                with pytest.raises(ConicModelError, match="smooth"):
                    component_torsor(C, P)
                continue
            want = power_residue_character(
                P.residue_field().from_key(bbar or abar), 2)
            got = component_torsor(C, P)
            assert got == want and got.zeta == want.zeta
    assert {d for d, _ in seen} == {1, 2, 3, 4, "inf"}
    assert {parity for _, parity in seen} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert {d for d, parity in seen if parity == (1, 1)} >= {1, 2, 3, 4}


def test_torsor_is_independent_of_the_residue_norms(monkeypatch, rng):
    # a fault in _unit_norm, bound wherever a brauer module imports it,
    # moves the residue and not the torsor: at a place of degree >= 2 where
    # exactly one valuation is odd, the residue read through a norm times a
    # non-square is flipped, so every row check_artin reports there is
    # (torsor 0, residue 1)
    bundles = list(_conics_at_places(rng))

    def mutant(P, rn, rd):
        norm = _unit_norm(P, rn, rd)
        if P.degree >= 2:
            F = P.field
            c = next(k for k in range(2, F.p)
                     if power_residue_character(F.from_key(k), 2).value)
            norm = F._kmul(norm, c)
        return norm

    patched = [name for name, module in list(sys.modules.items())
               if name.split(".")[0] == "brauer"
               and getattr(module, "_unit_norm", None) is _unit_norm]
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "_unit_norm", mutant)
    assert "brauer.residues" in patched
    flipped = 0
    for C, _ in bundles:
        for P, geo, res, agree in check_artin(C):
            odd = (valuation(C.a, P) % 2, valuation(C.b, P) % 2)
            if P.degree >= 2 and sum(odd) == 1:
                assert (geo.value, res.value, agree) == (0, 1, False), (C, P)
                flipped += 1
            else:
                assert agree, (C, P)
    assert flipped


def test_point_count_builds_no_field_element(monkeypatch):
    # the count reads the reduced fiber and kappa(P)'s log table on int
    # keys: once the tables exist, a count at places of degree 1 and 2 and
    # at infinity builds no FieldElement
    F7 = FiniteField(7)
    t = Poly.gen(F7)
    quad = Place(F7, t ** 2 + 1)
    places = [Place(F7, t), Place(F7, t + 3), Place.infinity(F7), quad]
    bundles = [ConicBundle(RatFunc(t * quad.poly), RatFunc.constant(F7, 3)),
               ConicBundle(RatFunc(t + 3) / (t + 1) ** 2,
                           RatFunc(3 * t + 1))]
    cases = [(C, P, e) for C in bundles for P in places for e in (1, 2)
             if 7 ** (P.degree * e) <= 49]
    counts = [count_fiber_points(*case) for case in cases]
    built = []
    init = finitefield.FieldElement.__init__
    monkeypatch.setattr(finitefield.FieldElement, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    assert [count_fiber_points(*case) for case in cases] == counts
    assert built == []
    assert finitefield.FiniteField(7).one() and built  # the patch holds
