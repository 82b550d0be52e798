import contextlib
import io
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from brauer import (Cochain, FiniteAbelianGroup, ResidueClass, TableSizeError,
                    cli, residue_cocycle_route)
from brauer.cli import main
from brauer.cohomology import TABLE_GUARD, coboundary_matrix
from brauer.conic import ConicModelError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_residue_text(capsys):
    code, out, _ = run(capsys, "residue", "--q", "5", "--n", "2",
                       "--symbol", "(t, 2)_2", "--place", "t")
    assert code == 0
    assert out.startswith("1 ")


def test_residue_json(capsys):
    code, out, _ = run(capsys, "residue", "--q", "5", "--n", "2",
                       "--symbol", "(t, 2)_2", "--place", "t",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "residue"
    assert payload["results"]["residue"] == {"value": 1, "n": 2, "zeta": 4}
    assert payload["pass"] is True


def test_ramification(capsys):
    code, out, _ = run(capsys, "ramification", "--q", "5", "--n", "2",
                       "--symbol", "(t, 2)_2", "--format", "json")
    assert code == 0
    places = {row["place"] for row in json.loads(out)["results"]["divisor"]}
    assert places == {"t", "inf"}


def test_reciprocity(capsys):
    code, out, _ = run(capsys, "reciprocity", "--q", "5", "--n", "2",
                       "--symbol", "(t, t+1)_2 + (t+2, t+3)_2")
    assert code == 0
    assert "sum=0" in out
    code, out, _ = run(capsys, "reciprocity", "--q", "5", "--n", "2",
                       "--symbol", "(t, 2)_2 + (t^2+2, t+1)_2")
    assert code == 0
    assert out.splitlines() == ["  t: 1", "  t+1: 1", "  t^2+2: 1", "  inf: 1",
                                "sum=0"]


def test_reciprocity_json(capsys):
    code, out, _ = run(capsys, "reciprocity", "--q", "5", "--n", "2",
                       "--symbol", "(t, 2)_2 + (t^2+2, t+1)_2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"] == {"sum": {"value": 0, "n": 2, "zeta": 4}}
    assert payload["pass"] is True


def test_cohomology_edge(capsys):
    code, out, _ = run(capsys, "cohomology", "edge", "--n", "3")
    assert code == 0
    assert "PASS" in out


def test_cohomology_epsilon(capsys):
    # n = 101 has n^3 triples past the guard but walks n^2 pairs within it
    for n in ("4", "101"):
        code, out, _ = run(capsys, "cohomology", "epsilon", "--n", n)
        assert code == 0
        assert "PASS" in out


def test_cohomology_gamma(capsys):
    code, out, _ = run(capsys, "cohomology", "gamma", "--n", "2", "--q", "5")
    assert code == 0
    assert "PASS" in out


def test_cohomology_rank(capsys):
    code, out, _ = run(capsys, "cohomology", "rank", "--n", "2",
                       "--factors", "2,2", "--m", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["invariant_factors"] == [2, 2, 2]
    code, out, _ = run(capsys, "cohomology", "rank", "--n", "2",
                       "--factors", "3,3", "--format", "json")
    assert code == 0
    assert json.loads(out)["params"] == {"n": 2, "q": None, "factors": [3, 3],
                                         "m": 2, "degree": 2}


def test_cohomology_rank_answers_from_the_small_complex(capsys):
    # H^3(Z/10, Z/10): 10^4 bar cochains in degree 3, one small cochain
    start = time.perf_counter()
    code, out, _ = run(capsys, "cohomology", "rank", "--n", "2", "--factors",
                       "10", "--m", "10", "--degree", "3")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (0, "H^3(Z/10, Z/10) = [10]\n")


def test_cohomology_rank_rejects_bad_modulus_and_degree(capsys):
    for m in ("0", "-2"):
        code, out, err = run(capsys, "cohomology", "rank", "--n", "2",
                             "--m", m)
        assert code == 3
        assert out == ""
        assert f"got {m}" in err
    code, _, err = run(capsys, "cohomology", "rank", "--n", "2",
                       "--degree", "-1")
    assert code == 3
    assert "degree must be >= 0, got -1" in err


def test_cohomology_rank_rejects_non_integer_factors(capsys):
    for factors in ("a", "2,,3", "2,x", "2.5", ""):
        code, out, err = run(capsys, "cohomology", "rank", "--n", "2",
                             "--factors", factors, "--m", "2")
        assert code == 2
        assert out == ""
        assert "parse error: --factors" in err


def test_cohomology_rank_checks_n_only_where_used(capsys):
    # with --factors and --m given, rank never reads n
    code, out, _ = run(capsys, "cohomology", "rank", "--factors", "2,2",
                       "--m", "2", "--n", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["invariant_factors"] == [2, 2, 2]
    for extra in (("--factors", "2,2"), ("--m", "2")):
        code, _, err = run(capsys, "cohomology", "rank", "--n", "1", *extra)
        assert code == 3
        assert "n must be >= 2" in err
    for sub in ("edge", "epsilon"):
        code, _, err = run(capsys, "cohomology", sub, "--n", "1")
        assert code == 3
        assert "n must be >= 2" in err
    code, _, err = run(capsys, "cohomology", "gamma", "--n", "1", "--q", "5")
    assert code == 3
    assert "n must be >= 2" in err


def test_cohomology_n_is_required_only_where_read(capsys):
    code, out, _ = run(capsys, "cohomology", "rank", "--factors", "2,2",
                       "--m", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["n"] is None
    assert payload["results"]["invariant_factors"] == [2, 2, 2]
    cases = [("rank", "--factors", "2,2"), ("rank", "--m", "2"), ("rank",),
             ("edge",), ("epsilon",), ("gamma", "--q", "5")]
    for sub, *extra in cases:
        text = run(capsys, "cohomology", sub, *extra)
        code, out, err = run(capsys, "cohomology", sub, *extra,
                             "--format", "json")
        message = f"--n is required for cohomology {sub}"
        assert text == (2, "", f"parse error: {message}\n"), sub
        assert (code, err) == (2, text[2])
        assert json.loads(out) == {"command": f"cohomology {sub}",
                                   "error": {"kind": "parse",
                                             "message": message},
                                   "exit": 2}


def test_conic(capsys):
    code, out, _ = run(capsys, "conic", "--q", "5", "--a", "t", "--b", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert all(row["agree"] for row in payload["results"]["places"])


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--rounds", "2")
    assert code == 0
    assert "selftest PASS" in out


def test_selftest_checks_ramified_point_counts(capsys, monkeypatch):
    # a count that is right over kappa(P) but wrong over its quadratic
    # extension fails exactly the places small enough for the e = 2 check:
    # the real count's size guard decides which those are
    calls, counted, real = [], [], cli.count_fiber_points

    def count(C, P, e=1):
        calls.append((C.field.p ** P.degree, e))
        points = real(C, P, e)  # raises TableSizeError past the guard
        counted.append(calls[-1])
        return points if e == 1 else 0

    monkeypatch.setattr(cli, "count_fiber_points", count)
    monkeypatch.delenv("BRAUER_SEED", raising=False)
    code, out, _ = run(capsys, "selftest", "--rounds", "2", "--format", "json")
    failures = json.loads(out)["results"]["failures"]
    assert code == 1
    assert failures and all(f.startswith("conic points") for f in failures)
    assert len(failures) == sum(e == 2 for _, e in counted)
    assert all(k * k <= TABLE_GUARD for k, e in counted if e == 2)
    assert any(k * k > TABLE_GUARD for k, e in calls if e == 2)


def test_selftest_checks_the_norm_route_against_kappa(capsys, monkeypatch):
    # a cocycle route one off fails every route check, and only those; the
    # checks visit places of degree 1 to 3 of the drawn symbols
    degrees = []

    def off_by_one(j, u, P, n):
        degrees.append(P.degree)
        r = residue_cocycle_route(j, u, P, n)
        return r + ResidueClass(n, 1, r.zeta)

    monkeypatch.setattr(cli, "residue_cocycle_route", off_by_one)
    monkeypatch.delenv("BRAUER_SEED", raising=False)
    code, out, _ = run(capsys, "selftest", "--rounds", "4", "--format", "json")
    failures = json.loads(out)["results"]["failures"]
    assert code == 1
    assert len(failures) == len(degrees) >= 6
    assert all(f.startswith("route ") for f in failures)
    assert set(degrees) <= {1, 2, 3} and max(degrees) > 1


def test_selftest_rejects_rounds_below_one(capsys):
    for rounds in ("0", "-1"):
        code, out, err = run(capsys, "selftest", "--rounds", rounds)
        assert code == 3
        assert out == ""
        assert "constraint violation: --rounds" in err


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "residue", "--q", "5", "--n", "2",
                       "--symbol", "(t, 2)_2", "--place", "t^2+1")
    assert code == 2
    assert "parse error" in err


def test_exit_code_constraint(capsys):
    code, _, err = run(capsys, "residue", "--q", "5", "--n", "3",
                       "--symbol", "(t, 2)_3", "--place", "t")
    assert code == 3
    assert "constraint" in err
    code, _, _ = run(capsys, "residue", "--q", "6", "--n", "2",
                     "--symbol", "(t, 2)_2", "--place", "t")
    assert code == 3


def test_parse_degree_bound(capsys):
    for symbol in ("(t^100000, 2)_2", "((t+1)^600 (t+2)^600, 2)_2"):
        start = time.perf_counter()
        code, out, err = run(capsys, "residue", "--q", "5", "--n", "2",
                             "--symbol", symbol, "--place", "t")
        assert time.perf_counter() - start < 1
        assert (code, out) == (4, "")
        assert err.startswith("size guard")
    code, out, _ = run(capsys, "residue", "--q", "5", "--n", "2",
                       "--symbol", "(t^1000, 2)_2", "--place", "t")
    assert code == 0
    assert out.startswith("0 ")
    code, out, err = run(capsys, "residue", "--q", "5", "--n", "2",
                         "--symbol", "(t^1001, 2)_2", "--place", "t")
    assert (code, out) == (4, "")
    assert err.startswith("size guard")
    # an exponent of L digits is at least 10^(L-1): refused before int()
    # reads it when 100^(L-1) > 10^6
    code, out, err = run(capsys, "residue", "--q", "5", "--n", "2",
                         "--symbol", "(t^10000, 2)_2", "--place", "t")
    assert (code, out) == (4, "")
    assert err.startswith("size guard: power to a 5-digit exponent of 100^4")


def test_whitespace_before_a_delimiter_parses_as_without(capsys):
    # whitespace may sit between any two tokens, before `,`, `)` and `/`
    # and at the end as much as after them
    ramification = ("ramification", "--q", "5", "--n", "2", "--symbol")
    cases = [(ramification + (spaced,), ramification + (plain,))
             for spaced, plain in (("(t , 2)_2", "(t, 2)_2"),
                                   ("(t, 2 )_2", "(t, 2)_2"),
                                   ("(t+1 /t, 2)_2", "(t+1/t, 2)_2"))]
    cases.append((("conic", "--q", "5", "--a", "t ", "--b", "2"),
                  ("conic", "--q", "5", "--a", "t", "--b", "2")))
    for spaced, plain in cases:
        code, out, err = run(capsys, *spaced)
        assert (code, err) == (0, ""), spaced
        assert (code, out, err) == run(capsys, *plain), spaced


def test_cohomology_size_guard_before_building(capsys, stop_past_guard):
    # the small complex, the cochain table, the Gamma section and the
    # epsilon walk are refused before anything is listed, built or
    # multiplied out, and the message states the estimate
    for argv, estimate in (
            (["rank", "--n", "2", "--factors", "2,2", "--m", "2",
              "--degree", "2000"], "small complex of 2003^2 entries"),
            (["rank", "--n", "2", "--factors", "2", "--m", "2",
              "--degree", "1000000000"], "small complex of 1000000002"),
            (["edge", "--n", "100000"], "cochain table of 10000000000^2"),
            (["gamma", "--n", "32", "--q", "97"], "factor set of 32^4"),
            (["epsilon", "--n", "1001"], "coboundary check of 1001^2")):
        start = time.perf_counter()
        code, out, err = run(capsys, "cohomology", *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (4, ""), argv
        assert err.startswith(f"size guard: {estimate}"), argv
    # each estimate lets its bound through and refuses one past it: a
    # passing guard raises stop_past_guard in place of the build
    for at, past in (
            # (k + 2)^1 for one factor, (k + 3)^2 for two
            (["rank", "--factors", "2", "--m", "2", "--degree", "999998"],
             ["rank", "--factors", "2", "--m", "2", "--degree", "999999"]),
            (["rank", "--factors", "3,5", "--m", "2", "--degree", "997"],
             ["rank", "--factors", "3,5", "--m", "2", "--degree", "998"]),
            (["epsilon", "--n", "1000"], ["epsilon", "--n", "1001"]),  # n^2
            (["gamma", "--n", "31", "--q", "311"],  # n^4
             ["gamma", "--n", "32", "--q", "97"]),
            (["edge", "--n", "31"], ["edge", "--n", "32"])):  # (n^2)^2
        with pytest.raises(stop_past_guard):
            main(["cohomology", *at])
        assert run(capsys, "cohomology", *past)[:2] == (4, ""), past
    for build, past in (
            (lambda m: FiniteAbelianGroup((m,)).elements(), 10 ** 6),
            (lambda m: Cochain(FiniteAbelianGroup((m,)), 2, 2), 1000),
            # refused before |G| random values are drawn
            (lambda m: Cochain.random(FiniteAbelianGroup((m, m)), 1, 2,
                                      random.Random(0)), 1000),
            (lambda k: Cochain(FiniteAbelianGroup((1,)), k, 2), 10 ** 6),
            (lambda m: coboundary_matrix(FiniteAbelianGroup((m,)), 1), 1000),
            # the trivial group's one row has k + 2 faces
            (lambda k: coboundary_matrix(FiniteAbelianGroup((1,)), k),
             10 ** 6 - 2)):
        with pytest.raises(stop_past_guard):
            build(past)
        with pytest.raises(TableSizeError):
            build(past + 1)


def test_epsilon_at_the_guard(capsys):
    # n = 100 was exactly the former n^3 bound on triples; it still answers
    code, out, _ = run(capsys, "cohomology", "epsilon", "--n", "100")
    assert (code, out) == (0, "coboundary identity PASS\n")


def test_large_prime_field_answers_quickly(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "residue", "--q", "1000003", "--n", "2",
                       "--symbol", "(t, 2)_2", "--place", "t")
    assert time.perf_counter() - start < 1
    assert (code, out) == (0, "1 (zeta=1000002)\n")


def test_tokens_past_int_string_limit(capsys):
    ones = "1" * 5000
    start = time.perf_counter()
    code, out, err = run(capsys, "residue", "--q", "5", "--n", "2",
                         "--symbol", f"(t^{ones}, 2)_2", "--place", "t")
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert err.startswith("size guard") and "exponent" in err
    # coefficients are read mod p and constants' exponents mod q - 1:
    # 11...1 = 1 mod 5 and 11...1 = 3 mod 4
    for symbol, same in ((f"({ones}*t+1, 2)_2", "(t+1, 2)_2"),
                         (f"(2^{ones}*t, 2)_2", "(2^3*t, 2)_2")):
        start = time.perf_counter()
        code, out, err = run(capsys, "residue", "--q", "5", "--n", "2",
                             "--symbol", symbol, "--place", "t")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == run(capsys, "residue", "--q", "5", "--n",
                                       "2", "--symbol", same, "--place", "t")


def test_exit_code_conic_model(capsys):
    code, _, err = run(capsys, "conic", "--q", "5", "--a", "0", "--b", "t")
    assert code == 2  # zero coefficient is caught at parse level


def test_json_error_payloads(capsys, monkeypatch):
    # one input per exit code 2-4: stdout carries the payload under
    # --format json, and the stderr line and exit code match text output
    cases = [
        (["ramification", "--q", "5", "--n", "2", "--symbol", "(t,,2)_2"],
         "ramification", "parse", 2),
        (["residue", "--q", "5", "--n", "3", "--symbol", "(t, 2)_3",
          "--place", "t"], "residue", "constraint", 3),
        (["cohomology", "gamma", "--n", "32", "--q", "97"],
         "cohomology gamma", "size", 4),
        (["conic", "--q", "5", "--a", "t", "--b", "2"], "conic",
         "constraint", 3),
    ]

    def smooth(C):
        raise ConicModelError("fiber is smooth")

    # a ramified place always has a degenerate fiber, so no CLI input
    # raises the model error; raised in check_artin's place, it reports as
    # the ValueError it is
    monkeypatch.setattr(cli, "check_artin", smooth)
    for argv, command, kind, code in cases:
        text = run(capsys, *argv)
        got, out, err = run(capsys, *argv, "--format", "json")
        assert (got, err) == (text[0], text[2]) == (code, err), argv
        assert text[1] == ""
        _, message = err.rstrip("\n").split(": ", 1)
        assert json.loads(out) == {"command": command,
                                   "error": {"kind": kind,
                                             "message": message},
                                   "exit": code}


def test_parser_built_once_per_process(capsys):
    cases = [
        ["conic", "--q", "5", "--a", "t"],  # argparse error: --b missing
        ["conic", "--q", "5", "--a", "t", "--b", "2", "--format", "json"],
        ["residue", "--q", "5", "--n", "2", "--symbol", "(t, 2)_2",
         "--place", "t"],
        ["cohomology", "rank", "--n", "2", "--factors", "2,2", "--m", "2",
         "--format", "json"],
    ]

    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in cases:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    cli._parser.cache_clear()
    cached = [outcome(argv) for argv in cases]
    assert cli._parser.cache_info().misses == 1
    assert cached == fresh
    assert fresh[0][0] == 2 and fresh[0][2].startswith("usage: brauer conic")
    assert [code for code, _, _ in fresh[1:]] == [0, 0, 0]


# per subcommand, a run that answers and one that is refused
PAYLOAD_CASES = [
    ("residue", ["--q", "5", "--n", "2", "--symbol", "(t, 2)_2",
                 "--place", "t"],
     ["--q", "6", "--n", "2", "--symbol", "(t, 2)_2", "--place", "t"]),
    ("ramification", ["--q", "5", "--n", "2", "--symbol", "(t, 2)_2"],
     ["--q", "5", "--n", "2", "--symbol", "(t,,2)_2"]),
    ("reciprocity", ["--q", "5", "--n", "2", "--symbol", "(t, t+1)_2"],
     ["--q", "5", "--n", "3", "--symbol", "(t, t+1)_3"]),
    ("cohomology edge", ["--n", "3"], ["--n", "32"]),
    ("cohomology epsilon", ["--n", "4"], ["--n", "1"]),
    ("cohomology gamma", ["--n", "2", "--q", "5"], ["--n", "2"]),
    ("cohomology rank", ["--factors", "2,2", "--m", "2"],
     ["--factors", "x", "--m", "2"]),
    ("conic", ["--q", "5", "--a", "t", "--b", "2"],
     ["--q", "2", "--a", "t", "--b", "1"]),
    ("selftest", ["--rounds", "1"], ["--rounds", "0"]),
]


def test_payload_keys_and_command_names(capsys, monkeypatch):
    monkeypatch.delenv("BRAUER_SEED", raising=False)
    for command, answered, refused in PAYLOAD_CASES:
        for extra, keys in ((answered, ["command", "params", "results",
                                        "pass"]),
                            (refused, ["command", "error", "exit"])):
            argv = command.split() + extra
            text = run(capsys, *argv)
            code, out, err = run(capsys, *argv, "--format", "json")
            payload = json.loads(out)
            assert list(payload) == keys, argv
            assert payload["command"] == command, argv
            assert (code, err) == (text[0], text[2]), argv
            if "exit" in payload:
                assert code == payload["exit"] >= 2 and text[1] == "", argv
            else:
                assert (code, payload["pass"]) == (0, True), argv


def test_failed_identity_exits_one_in_both_formats(capsys, monkeypatch):
    real_edge, real_sum = cli.lhs_edge_map, cli.reciprocity_sum
    real_artin, real_epsilon = cli.check_artin, cli._epsilon_checked
    cases = [
        ("lhs_edge_map", lambda c: 2 * real_edge(c),
         ["cohomology", "edge", "--n", "3"],
         "1_boxtimes_1 -> [0, 2, 1] : FAIL"),
        ("_epsilon_checked", lambda n: (real_epsilon(n)[0], False),
         ["cohomology", "epsilon", "--n", "4"], "coboundary identity FAIL"),
        ("cocycles_cohomologous", lambda a, b: False,
         ["cohomology", "gamma", "--n", "2", "--q", "5"],
         "factor set ~ -(1x1) : FAIL"),
        ("reciprocity_sum",
         lambda a: real_sum(a) + ResidueClass(a.n, 1, real_sum(a).zeta),
         ["reciprocity", "--q", "5", "--n", "2", "--symbol", "(t, t+1)_2"],
         "sum=1"),
        ("check_artin",
         lambda C: [(P, g, r, False) for P, g, r, _ in real_artin(C)],
         ["conic", "--q", "5", "--a", "t", "--b", "2"],
         "  place=t geometric=1 residue=1 agree=false"),
    ]
    for name, broken, argv, line in cases:
        monkeypatch.setattr(cli, name, broken)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, ""), argv
        assert line in out.splitlines(), argv
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (1, ""), argv
        assert '"pass": false' in out and json.loads(out)["pass"] is False


# -- the JSON writer and the direct dispatch ----------------------------------

_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.integers(min_value=-10 ** 40, max_value=10 ** 40)
                 | st.floats() | st.text()
                 | st.sampled_from(["", "\"\\/\b\f\n\r\t\x00\x1f\x7f",
                                    "é€ 😀  ", "\ud800", "ä\udfff"]))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=16)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_JSON_VALUES)
def test_indented_writer_equals_json_dumps(value):
    assert cli._indented(value) == json.dumps(value, indent=2)


def test_indented_writer_refuses_what_json_dumps_refuses():
    for value in ({"a": object()}, [1, {2}]):
        with pytest.raises(TypeError) as want:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as got:
            cli._indented(value)
        assert str(got.value) == str(want.value)
    with pytest.raises(TypeError):  # payload keys are str
        cli._indented({1: 2})


# every subcommand answered, then argparse's own paths at both levels
PARITY_ARGV = [command.split() + answered
               for command, answered, _ in PAYLOAD_CASES] + [
    [], ["-h"], ["--help"], ["--format", "json"], ["-x"], ["bogus"],
    ["cohomology"], ["cohomology", "rnk"], ["cohomology", "-h"],
    ["conic", "--help"], ["conic", "--q", "5", "--a", "t"],
    ["conic", "--q", "13", "--a", "t", "--b", "t", "--bogus"],
    ["conic", "--q", "13", "--a", "t", "--b", "t", "--bogus", "x",
     "--format", "json"],
    ["conic", "--q", "5", "--a", "t", "--b", "2", "--format", "xml"],
    ["conic", "--q", "x", "--a", "t", "--b", "2"],
    ["conic", "--q=5", "--a=t", "--b", "2", "--form", "json"],
    ["conic", "--q", "5", "--a", "t", "--b", "2", "--he"],
    ["--", "conic", "--q", "5", "--a", "t", "--b", "2"],
    ["conic", "--", "--q", "5"],
    ["conic", "--q", "5", "--a", "t", "--b", "2", "--", "x"],
    ["residue", "--q", "5", "--n", "2", "--symbol", "(t, 2)_2", "--place",
     "t", "extra"],
    ["selftest", "--rounds", "1", "--rounds"],
]


def _outcome(parse, argv):
    """(vars of the Namespace or None, exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args, code = vars(parse(list(argv))), None
    except SystemExit as exc:
        args, code = None, exc.code
    return args, code, out.getvalue(), err.getvalue()


def test_direct_dispatch_matches_the_top_level_parser(capsys, monkeypatch):
    monkeypatch.delenv("BRAUER_SEED", raising=False)
    top, _ = cli.build_parser()

    def ran(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    for argv in PARITY_ARGV:
        assert (_outcome(cli._parse, argv)
                == _outcome(top.parse_args, argv)), argv
        for extra in ([], ["--format", "json"]):
            direct = ran(argv + extra)
            with monkeypatch.context() as m:
                m.setattr(cli, "_parse", top.parse_args)
                assert ran(argv + extra) == direct, argv + extra


# words that argparse reads its own way: its spellings, values that start
# with "-", a positional out of place
_WORDS = ["--", "-h", "--help", "--bogus", "-5", "-x", "- 1", "extra", "",
          "edge"]


def _values(action):
    """(values argparse stores for a flag's action, values it refuses)."""
    if action.choices:
        return list(action.choices), ["xml", "-x", ""]
    if action.type:
        return ["5", "2", "13", " 7", "-3", "\u0663"], ["x", "1.5", "-x", ""]
    return ["t", "(t, 2)_2", "2,2", "", " -1", "- t", "-1"], ["-t", "--q"]


_CHANGES = ("drop", "repeat", "refuse", "abbreviate", "join", "bare", "word",
            "move")


@st.composite
def _command_lines(draw):
    """A well-formed command line from a subcommand's option table (its
    name, its positional, the required flags and some others with valid
    values, in any order), then up to two changes: a flag dropped,
    repeated, given a refused value, abbreviated, written --flag=value or
    left bare, a word of _WORDS put in, or the positional moved or
    dropped."""
    commands = cli._parser()[1]
    name = draw(st.sampled_from(sorted(commands)))
    options = commands[name]
    pairs = [[flag, draw(st.sampled_from(_values(action)[0]))]
             for flag, action in sorted(options.flags.items())
             if action.required or draw(st.booleans())]
    pairs = draw(st.permutations(pairs))
    head = [] if options.positional is None else [
        draw(st.sampled_from(options.positional.choices))]
    for change in draw(st.lists(st.sampled_from(_CHANGES), max_size=2)):
        if change == "word":
            at = draw(st.integers(0, len(pairs)))
            pairs.insert(at, [draw(st.sampled_from(_WORDS))])
            continue
        if change == "move":
            if head and draw(st.booleans()):
                pairs.insert(draw(st.integers(0, len(pairs))), head)
            head = []
            continue
        intact = [i for i, pair in enumerate(pairs)
                  if len(pair) == 2 and pair[0] in options.flags]
        if not intact:
            continue
        i = draw(st.sampled_from(intact))
        flag, value = pairs[i]
        values = _values(options.flags[flag])
        if change == "drop":
            del pairs[i]
        elif change == "repeat":
            pairs.insert(draw(st.integers(0, len(pairs))), [
                flag, draw(st.sampled_from(values[0] + values[1]))])
        elif change == "refuse":
            pairs[i] = [flag, draw(st.sampled_from(values[1]))]
        elif change == "abbreviate":
            pairs[i] = [flag[:draw(st.integers(2, len(flag)))], value]
        elif change == "join":
            pairs[i] = [f"{flag}={value}"]
        else:
            pairs[i] = [flag]
    return [name] + head + [word for pair in pairs for word in pair]


_TOP = cli.build_parser()[0]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_command_lines())
def test_option_table_reads_as_argparse(argv):
    assert _outcome(cli._parse, argv) == _outcome(_TOP.parse_args, argv)


def test_option_table_answers_every_payload_case():
    commands = cli._parser()[1]
    for command, answered, refused in PAYLOAD_CASES:
        for argv, extra in itertools.product(
                (answered, refused), ([], ["--format", "json"])):
            argv = command.split() + argv + extra
            args = _outcome(_TOP.parse_args, argv)[0]
            if args is not None:
                read = commands[argv[0]].read(argv[1:])
                assert read is not None, argv
                assert dict(read, command=argv[0]) == args, argv


def test_epsilon_table_built_once(capsys, monkeypatch):
    from brauer import cohomology
    calls, real = [], cohomology.epsilon_cocycle

    def counted(n, power=1):
        calls.append((n, power))
        return real(n, power)

    monkeypatch.setattr(cohomology, "epsilon_cocycle", counted)
    for fmt in ("text", "json"):
        calls.clear()
        code, out, _ = run(capsys, "cohomology", "epsilon", "--n", "5",
                           "--format", fmt)
        assert code == 0 and calls == [(5, 1)], fmt
    assert json.loads(out)["results"]["epsilon"][4][1] == "pi^(-1)*zeta^0"


def test_trial_division_and_roots_of_unity_exit_four_quickly(capsys):
    big = "1000000000000000003"  # prime, 10^18 + 3
    for argv, estimate in (
            (["cohomology", "rank", "--factors", "2", "--m",
              "1000000016000000063", "--degree", "2"],  # (10^9+7)(10^9+9)
             "trial division of 500000004"),
            (["residue", "--q", big, "--n", "104890113446", "--symbol",
              "(t, 2)_104890113446", "--place", "t+1"],
             "n-th roots of unity of 104890113446"),
            (["residue", "--q", big, "--n", "500000000000000001", "--symbol",
              "(t, 2)_500000000000000001", "--place", "t+1"],
             "n-th roots of unity of 500000000000000001")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (4, ""), argv
        assert err == f"size guard: {estimate} entries exceeds the guard " \
                      "1000000\n", argv


def test_large_q_answers_or_exits_three_quickly(capsys):
    big = "1000000000000000003"  # prime, 10^18 + 3
    for argv, line in (
            (["residue", "--q", big, "--n", "2", "--symbol", "(t, 2)_2",
              "--place", "t"], f"1 (zeta={int(big) - 1})"),
            (["cohomology", "gamma", "--n", "2", "--q", big],
             "factor set ~ -(1x1) : PASS")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, out, err) == (0, line + "\n", ""), argv
    bound = "3317044064679887385961981"
    for q in (bound, "10000000000000000000000000000"):
        code, out, err = run(capsys, "residue", "--q", q, "--n", "2",
                             "--symbol", "(t, 2)_2", "--place", "t")
        assert (code, out) == (3, "")
        assert err.startswith("constraint violation") and bound in err
    code, _, err = run(capsys, "residue", "--q", "1000000000000000001",
                       "--n", "2", "--symbol", "(t, 2)_2", "--place", "t")
    assert (code, err) == (3, "constraint violation: "
                              "q=1000000000000000001 must be prime\n")
