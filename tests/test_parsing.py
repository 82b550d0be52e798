from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from brauer import (
    FiniteField,
    ParseError,
    Place,
    Poly,
    RatFunc,
    SymbolClass,
    TableSizeError,
    parse_place,
    parse_poly,
    parse_ratfunc,
    parse_symbol_sum,
)

import parsing_reference as reference
from brauer import parsing
from brauer.cohomology import check_work
from conftest import random_ratfunc


F5 = FiniteField(5)
F7 = FiniteField(7)
t = Poly.gen(F5)


def test_parse_poly_basic():
    assert parse_poly("t^2 + 3t + 1", F5) == t ** 2 + 3 * t + 1
    assert parse_poly("t^2+3*t+1", F5) == t ** 2 + 3 * t + 1
    assert parse_poly("7", F5) == Poly.constant(F5, 2)
    assert parse_poly("-t", F5) == -t
    assert parse_poly("(t+1)(t+2)", F5) == (t + 1) * (t + 2)
    assert parse_poly("(t+1)^3", F5) == (t + 1) ** 3
    assert parse_poly("2(t+1) - t", F5) == 2 * (t + 1) - t


def test_parse_poly_signs_and_monomial_powers_match_poly_arithmetic():
    F25 = FiniteField(5, 2)
    s = Poly.gen(F25)
    cases = {
        "+t": t, "-t + 1": -t + 1, "-(t+1)^2 - t": -(t + 1) ** 2 - t,
        "t^0": Poly.one(F5), "(t)^3": t * t * t, "0*t^5": Poly.zero(F5),
        "3t^2": 3 * t * t, "(2t)^3 - 3": 8 * t * t * t - 3,
        "t - t": Poly.zero(F5), "t^1000": Poly(F5, [0] * 1000 + [1]),
    }
    for text, want in cases.items():
        assert parse_poly(text, F5) == want, text
    assert parse_poly("(2t)^7 - t^2", F25) == 2 ** 7 * s ** 7 - s * s
    assert parse_poly("-(t^2)^3", F7) == -Poly.gen(F7) ** 6


def test_parse_poly_errors():
    for bad in ("", "t +", "t^", "(t", "t^-2", "x+1"):
        with pytest.raises(ParseError):
            parse_poly(bad, F5)


def test_parse_ratfunc():
    f = parse_ratfunc("(t^2+1)/(t+2)", F5)
    assert f == RatFunc(t ** 2 + 1, t + 2)
    assert parse_ratfunc("t+1", F5) == RatFunc(t + 1)
    assert parse_ratfunc("3/t", F5) == RatFunc(Poly.constant(F5, 3), t)


def test_parse_place():
    assert parse_place("t+1", F5) == Place(F5, t + 1)
    assert parse_place("inf", F5) == Place.infinity(F5)
    assert parse_place("infinity", F5) == Place.infinity(F5)
    assert parse_place("oo", F5) == Place.infinity(F5)
    # non-monic input is normalized
    assert parse_place("2t+2", F5) == Place(F5, t + 1)


def test_parse_place_rejects_reducible():
    with pytest.raises(ParseError, match="irreducible"):
        parse_place("t^2+1", F5)  # (t+2)(t+3) mod 5
    with pytest.raises(ParseError):
        parse_place("3", F5)


def test_parse_symbol_sum():
    alpha = parse_symbol_sum("(t, t+1)_2 + 3*(t+2, 4)_2", F5)
    assert alpha.n == 2
    assert len(alpha.terms) == 2
    beta = parse_symbol_sum("(t, 2)_3 - (t+1, t)_3", F7)
    assert beta.terms[1][2] == 2  # -1 mod 3


def test_parse_symbol_sum_errors():
    with pytest.raises(ParseError):
        parse_symbol_sum("(t, t+1)_2 + (t, 2)_3", F5)  # mixed n
    with pytest.raises(ParseError):
        parse_symbol_sum("(t t+1)_2", F5)
    for bad in ("(t)_2", "(t,2,3)_2", "((t,2)_2", "(t,,2)_2", "(t,2,)_2"):
        with pytest.raises(ParseError):
            parse_symbol_sum(bad, F5)
    # a dangling or doubled sign, as the polynomial grammar rejects t--1
    for bad in ("(t,2)_4 +", "(t,2)_4 - - (t+1,2)_4",
                "(t,2)_4 + + (t+1,2)_4", "+ + (t,2)_4", "-"):
        with pytest.raises(ParseError, match="sign"):
            parse_symbol_sum(bad, F5)
    # a symbol modulus below 2, read from the text or passed in
    for text, n in (("(t,2)_0", None), ("(t,2)_1", None),
                    ("(t,2)_1 + (t+1,3)_1", None), ("", 1), ("(t,2)_0", 0)):
        with pytest.raises(ValueError, match=">= 2"):
            parse_symbol_sum(text, F5, n)
    assert parse_symbol_sum("- (t,2)_4", F5) == SymbolClass(
        4, [(RatFunc(t), RatFunc(Poly.constant(F5, 2)), 3)])


def test_symbol_sum_repr_round_trip(rng):
    # arguments with denominators print as (num)/(den) inside the symbol
    assert parse_symbol_sum("((t+1)/(t+2), t)_2", F5) == SymbolClass(
        2, [(RatFunc(t + 1, t + 2), RatFunc(t), 1)])
    for F, n in ((F5, 2), (F5, 4), (F7, 3)):
        for _ in range(20):
            terms = []
            for _ in range(rng.randrange(1, 4)):
                a, b = random_ratfunc(rng, F), random_ratfunc(rng, F)
                if not a.is_zero() and not b.is_zero():
                    terms.append((a, b, rng.randrange(1, n)))
            alpha = SymbolClass(n, terms)
            if alpha.terms:
                assert parse_symbol_sum(repr(alpha), F) == alpha


def _random_expr(rng, F, depth):
    """(text, Poly) of a random expression tree over F: a sum or difference
    of terms, the first maybe signed, the Poly built by Poly arithmetic."""
    sign = rng.choice(("", "", "-", "+"))
    text, val = _random_term(rng, F, depth)
    text, val = sign + text, -val if sign == "-" else val
    for _ in range(rng.randrange(3) if depth else 0):
        more, v = _random_term(rng, F, depth)
        if rng.random() < 0.5:
            text, val = f"{text} + {more}", val + v
        else:
            text, val = f"{text}-{more}", val - v
    return text, val


def _random_term(rng, F, depth):
    """A product of factors, by `*` or by juxtaposition before t or `(`."""
    text, val = _random_factor(rng, F, depth)
    for _ in range(rng.randrange(3) if depth else 0):
        more, v = _random_factor(rng, F, depth)
        glue = (rng.choice(("", " ")) if more[0] in "t(" and rng.random() < 0.5
                else rng.choice(("*", " * ")))
        text, val = text + glue + more, val * v
    return text, val


def _random_factor(rng, F, depth):
    """t, a constant (zero, reduced or not) or a parenthesized expression,
    maybe raised to a power: any exponent >= 0 on a constant, up to q - 1
    and past it, and 0 to 3 on the others, some with leading zeros."""
    kind = rng.choice(("t", "const", "paren") if depth else ("t", "const"))
    if kind == "t":
        text, val = "t", Poly.gen(F)
    elif kind == "const":
        c = 0 if rng.random() < 0.1 else rng.randrange(1, 3 * F.p)
        text, val = str(c), Poly.constant(F, c)
    else:
        inner, val = _random_expr(rng, F, depth - 1)
        text = f"({inner})"
    if rng.random() < 0.4:
        q = F.order
        e = (rng.choice((0, 1, q - 2, q - 1, q, rng.randrange(q, 4 * q)))
             if val.degree < 1 else rng.randrange(4))
        text, val = f"{text}^{rng.choice(('', '', '', '0', '00'))}{e}", val ** e
    return text, val


@pytest.mark.parametrize("field", [FiniteField(5), FiniteField(13),
                                   FiniteField(5, 2)], ids=repr)
def test_parse_poly_matches_random_expression_trees(rng, field):
    for _ in range(150):
        text, want = _random_expr(rng, field, 2)
        got = parse_poly(text, field)
        assert got == want, text
        assert not got.coeffs or got.coeffs[-1], text  # trimmed


# -- the grammar, by property ------------------------------------------------

GRAMMAR = settings(derandomize=True, database=None, deadline=None,
                   max_examples=80)
N_FOR_Q = {5: (2, 4), 7: (2, 3, 6), 13: (2, 3, 4, 6, 12)}
SPACES = ("", "", "", " ", "  ", "\t")


def _poly_tokens(coeffs, q, layout):
    """A nonzero polynomial's tokens as a signed sum of monomials c*t^k,
    c t^k or t^k; layout (a Random) picks the optional tokens and signs."""
    tokens = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        if layout.random() < 0.4:
            tokens.append("-")
            c = q - c
        elif tokens or layout.random() < 0.2:
            tokens.append("+")
        if k == 0:
            tokens.append(str(c))
            continue
        if c != 1 or layout.random() < 0.3:
            tokens += [str(c)] + layout.choice(([], ["*"]))
        tokens.append("t")
        if k > 1 or layout.random() < 0.3:
            tokens += ["^", str(k)]
    return tokens


def _polys(q):
    """Nonzero coefficient lists of degree <= 6 over F_q."""
    return st.builds(lambda low, lead: low + [lead],
                     st.lists(st.integers(0, q - 1), max_size=6),
                     st.integers(1, q - 1))


@st.composite
def symbol_sums(draw):
    """(text, field, n, terms): one to three terms, each ((num[/den]),
    (num[/den]))_n with a signed multiplicity, in a drawn layout of
    optional tokens, parentheses and whitespace between any two tokens;
    terms holds the (a, b, multiplicity) that the text stands for."""
    q = draw(st.sampled_from(sorted(N_FOR_Q)))
    n = draw(st.sampled_from(N_FOR_Q[q]))
    F = FiniteField(q)
    layout = draw(st.randoms(use_true_random=True))
    tokens, terms = [], []
    for i in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from(("+", "-") if i else ("", "+", "-")))
        mult = draw(st.integers(1, 2 * n + 1))
        args = []
        for _ in range(2):
            parts = draw(st.lists(_polys(q), min_size=1, max_size=2))
            args.append((RatFunc(*(Poly(F, c) for c in parts)), [
                tok for j, c in enumerate(parts)
                for tok in ["/"] * j + (["(", *_poly_tokens(c, q, layout), ")"]
                                        if layout.random() < 0.5
                                        else _poly_tokens(c, q, layout))]))
        tokens += [sign] if sign else []
        tokens += [str(mult), "*"] if mult > 1 or layout.random() < 0.3 else []
        tokens += ["(", *args[0][1], ",", *args[1][1], ")", "_", str(n)]
        terms.append((args[0][0], args[1][0], -mult if sign == "-" else mult))
    text = "".join(layout.choice(SPACES) + tok for tok in tokens)
    return text + layout.choice(SPACES), F, n, terms


@GRAMMAR
@given(symbol_sums())
def test_grammar_sums_parse_to_their_terms_and_repr_round_trips(case):
    text, F, n, terms = case
    want = SymbolClass(n, terms)
    assert parse_symbol_sum(text, F) == want
    assert parse_symbol_sum(text, F, n) == want
    if want.terms:  # the zero class prints as 0_(n=...)
        assert parse_symbol_sum(repr(want), F) == want


TOKENS = ("t", "^", "*", "+", "-", "/", "(", ")", ",", "_", "0", "1", "2",
          "3", "12", "600", "1001", "x")
TOKEN_STRINGS = st.lists(
    st.tuples(st.sampled_from(SPACES), st.sampled_from(TOKENS)), max_size=20
).map(lambda tokens: "".join(w + tok for w, tok in tokens))


@settings(GRAMMAR, max_examples=200)
@given(TOKEN_STRINGS)
def test_token_strings_parse_or_raise_parse_or_size_errors(text):
    for parse in (parse_poly, parse_ratfunc,
                  lambda s, F: parse_symbol_sum(s, F, 2)):
        try:
            parse(text, F5)
        except (ParseError, TableSizeError):
            pass
    try:  # a place factors its polynomial: only a small one is tried
        small = parse_poly(text, F5).degree <= 8
    except (ParseError, TableSizeError):
        small = False
    if small:
        try:
            parse_place(text, F5)
        except ParseError:
            pass


# -- the one-pass parser against the recursive descent it replaced ----------


def _outcome(module, name, *args):
    """module.name(*args): its value, or the type and message of the error it
    raises, with the (what, base, power) of every size check it made."""
    checks = []

    def check(*check_args):
        checks.append(check_args)
        return check_work(*check_args)

    with mock.patch.object(module, "check_work", check):
        try:
            return getattr(module, name)(*args), checks
        except (ValueError, TableSizeError) as exc:  # ParseError: ValueError
            return (type(exc), str(exc)), checks


def _assert_parses_as_reference(text, F, n=None):
    """Every entry point gives the reference parser's value or error, after
    the same size checks; a place is read when its polynomial fails to
    parse or has degree <= 8, since a larger one is only factored, by code
    both sides share."""
    for name, args in (("parse_poly", (text, F)),
                       ("parse_ratfunc", (text, F)),
                       ("parse_symbol_sum", (text, F)),
                       ("parse_symbol_sum", (text, F, n or 2)),
                       ("parse_place", (text, F))):
        if name == "parse_place" and not small:
            continue
        want = _outcome(reference, name, *args)
        assert _outcome(parsing, name, *args) == want, (name, args)
        if name == "parse_poly":
            small = not isinstance(want[0], Poly) or want[0].degree <= 8


@settings(GRAMMAR, max_examples=500)
@given(TOKEN_STRINGS, st.sampled_from((F5, FiniteField(5, 2))))
def test_token_strings_parse_as_the_reference_parser(text, field):
    _assert_parses_as_reference(text, field)


@GRAMMAR
@given(symbol_sums())
def test_symbol_sums_parse_as_the_reference_parser(case):
    text, F, n, _ = case
    _assert_parses_as_reference(text, F, n)


def test_a_zero_factor_empties_the_product_before_the_size_checks():
    assert parse_poly("0*t^900*t^900", F5) == Poly.zero(F5)
    assert parse_poly("t^900*0*t^900", F5) == Poly.zero(F5)
    with pytest.raises(TableSizeError,
                       match=r"^polynomial product of 1200\^2 entries"):
        parse_poly("t^600*t^600", F5)


@pytest.mark.parametrize("text", [
    "0*t^900*t^900",  # a zero factor empties the product: the sizes pass
    "t^900*0*t^900",
    "t^600*t^600",  # polynomial product of 1200^2 entries
    "(t+1)^1001",  # polynomial power of 1001^2 entries
    "t^123456",  # power to a 6-digit exponent, refused before int()
    "2^123456789012345678901234567890*t",  # a constant's exponent mod q - 1
    "t^600 t^600 x", "(t, 2)_2 x", "x", " ", "", "(t^2+1)/(t+1)^2 + 3",
    "t^", "(t", "t +", "(t,2)_2 (", "- (t,2)_4", "0^0 t - 3(2t)^3 t",
    "t - t", "(t+1)^2 - t^2 - 2t", "t^2 + 3t - 3*t - t^2", "t^1000 * 0",
], ids=repr)
def test_size_and_error_corners_parse_as_the_reference_parser(text):
    for F in (F5, FiniteField(5, 2)):
        _assert_parses_as_reference(text, F)
