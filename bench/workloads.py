"""The three benchmark workloads: seeded op rounds with their oracles.

Each workload is a sequence of rounds.  A round is a fixed mix of op kinds
at fixed size classes, and only the concrete inputs vary with the seed,
so every round costs about the same and a run that stops at a round
boundary measures the same mix whatever its length.

An op is a callable that hands generated strings and int tuples to the
program (the CLI entry point `brauer.cli.main` or a public library call)
plus a check that compares the program's answer with an oracle from
`oracles.py`.  Library names are looked up on the `brauer` package at
call time, so the outside-in tracer sees every call.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import brauer
from brauer import cli

import oracles as O


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the answer is right


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv) + ["--format", "json"])
    return code, out.getvalue(), err.getvalue()


def cli_payload(result):
    """(payload, None) for a zero exit with JSON output, else (None, why)."""
    code, out, err = result
    if code != 0:
        return None, f"exit {code}: {err.strip()[:200]}"
    return json.loads(out), None


def _mismatch(what, got, want):
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


class Workload:
    """Base: `round(r)` returns the ops of round r for this seed.

    `skew` is added to every expected value; the benchmark's own tests set
    it to 1 to prove that a wrong oracle input is reported.
    """

    def __init__(self, seed: int, small: bool = False, skew: int = 0):
        self.seed = seed
        self.small = small
        self.skew = skew

    def rng(self, *tag):
        return random.Random(":".join(map(str, (type(self).__name__,
                                                 self.seed) + tag)))

    def round(self, r: int):
        rng = self.rng("round", r)
        ops = self.ops(rng)
        rng.shuffle(ops)
        return ops


# -- symbols -------------------------------------------------------------


DEG_WEIGHTS = ((0, 3), (1, 4), (2, 3), (3, 2), (4, 1))


def _degree(rng, cap):
    choices = [(d, w) for d, w in DEG_WEIGHTS if d <= cap]
    return rng.choices([d for d, _ in choices], [w for _, w in choices])[0]


def random_poly(rng, q, deg):
    return [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]


# irreducible factor degrees of the degree-8 numerator in a big sum: a
# fixed pattern keeps the cost of factoring it and of the residues at its
# places about the same from one seed to the next
BIG_PATTERN = (1, 3, 4)


def random_ratfunc(rng, q, cap, big=False):
    if big:
        num = [rng.randrange(1, q)]
        for d in BIG_PATTERN:
            num = O.pmul(num, O.random_irreducible(rng, q, d), q)
    else:
        num = random_poly(rng, q, _degree(rng, cap))
    d = _degree(rng, cap)
    den = [1] if d == 0 else random_poly(rng, q, d)
    return num, den


class Symbols(Workload):
    """CLI ramification / reciprocity / residue on symbol sums, and library
    route-agreement ops, over F_5 and F_13 with n in {2, 4}.

    Arguments have num/den degree <= 4 except in the big sums, whose first
    numerator has degree 8; those and the plain reciprocity sums are near
    a quarter of the ops, so p90 falls among them.  The eight route ops at
    n = 4 (about 5 ms) span the middle of a round, so p50 falls among
    them."""

    def ops(self, rng):
        cap = 2 if self.small else 4
        mix = ((self.route, 2), (self.route, 2), (self.route, 4),
               (self.route, 4), (self.route, 4), (self.route, 4),
               (self.residue, 2), (self.residue, 4),
               (self.ramification, 2), (self.ramification, 4),
               (self.reciprocity, 2), (self.big_ramification, 4),
               (self.big_reciprocity, 2))
        if self.small:
            mix = ((self.route, 2), (self.residue, 4),
                   (self.ramification, 2), (self.reciprocity, 4))
        return [make(rng, q, n, cap) for q in (5, 13) for make, n in mix]

    def symbol_sum(self, rng, q, n, cap, terms, big=False):
        """(text, terms) with terms (a, b, m) for the oracle."""
        text, parsed = "", []
        for i in range(terms):
            a = random_ratfunc(rng, q, cap, big=big and i == 0)
            b = random_ratfunc(rng, q, cap)
            m = rng.randrange(1, n)
            body = (f"{m}*" if m > 1 else "") + \
                f"({O.ratfunc_str(*a)}, {O.ratfunc_str(*b)})_{n}"
            sign = rng.choice("+-") if i else "+"
            text += (body if not i else f" {sign} {body}")
            parsed.append((a, b, -m if sign == "-" else m))
        return text, parsed

    def residue(self, rng, q, n, cap):
        text, terms = self.symbol_sum(rng, q, n, cap, rng.randint(1, 2))
        place = rng.choice(O.degree_one_places(q))
        pstr = O.place_str(place, q)
        want = (O.tame_residue(terms, place, q, n) + self.skew) % n

        def check(result):
            payload, err = cli_payload(result)
            if err:
                return err
            r = payload["results"]["residue"]
            return (_mismatch("zeta", r["zeta"], O.zeta(q, n))
                    or _mismatch(f"residue at {pstr}", r["value"], want))

        return Op("residue", lambda: run_cli(
            ["residue", "--q", str(q), "--n", str(n), "--symbol", text,
             "--place", pstr]), check)

    def ramification(self, rng, q, n, cap, big=False):
        text, terms = self.symbol_sum(rng, q, n, cap,
                                      2 if big else rng.randint(1, 3), big)
        return Op("ramification_big" if big else "ramification",
                  lambda: run_cli(["ramification", "--q", str(q), "--n",
                                   str(n), "--symbol", text]),
                  lambda result: self.check_divisor(result, terms, q, n))

    def check_divisor(self, result, terms, q, n):
        """Degree-1 places and inf against the oracle; every place through
        reciprocity (corestriction keeps the value with this zeta)."""
        payload, err = cli_payload(result)
        if err:
            return err
        got = {e["place"]: e["residue"]["value"]
               for e in payload["results"]["divisor"]}
        for place in O.degree_one_places(q):
            pstr = O.place_str(place, q)
            want = O.tame_residue(terms, place, q, n)
            if want:
                want = (want + self.skew) % n
            bad = _mismatch(f"residue at {pstr}", got.get(pstr, 0), want)
            if bad:
                return bad
        return _mismatch("sum of residues", sum(got.values()) % n,
                         self.skew % n)

    def reciprocity(self, rng, q, n, cap, big=False):
        text, terms = self.symbol_sum(rng, q, n, cap, 2, big)

        def check(result):
            payload, err = cli_payload(result)
            if err:
                return err
            return (_mismatch("pass", payload["pass"], not self.skew)
                    or _mismatch("sum", payload["results"]["sum"]["value"],
                                 self.skew % n))

        return Op("reciprocity_big" if big else "reciprocity",
                  lambda: run_cli(["reciprocity", "--q", str(q), "--n",
                                   str(n), "--symbol", text]), check)

    def big_ramification(self, rng, q, n, cap):
        return self.ramification(rng, q, n, cap, big=True)

    def big_reciprocity(self, rng, q, n, cap):
        return self.reciprocity(rng, q, n, cap, big=True)

    def route(self, rng, q, n, cap):
        """(pi^j, u)_n at the place t - c by both library routes."""
        c, j = rng.randrange(q), rng.randrange(n)
        while True:
            u = random_ratfunc(rng, q, cap)
            v, unit = O.local_data(u, c, q)
            if v == 0:
                break
        want = (-j * O.character(unit, q, n) + self.skew) % n

        def run():
            F = brauer.FiniteField(q)
            P = brauer.Place(F, brauer.Poly(F, [(-c) % q, 1]))
            uf = brauer.RatFunc(brauer.Poly(F, u[0]), brauer.Poly(F, u[1]))
            alpha = brauer.SymbolClass.symbol(brauer.RatFunc(P.poly) ** j,
                                              uf, n)
            return (brauer.residue_cocycle_route(j, uf, P, n).value,
                    brauer.tame_residue(alpha, P).value)

        def check(result):
            return (_mismatch("cocycle route", result[0], want)
                    or _mismatch("tame route", result[1], want))

        return Op(f"route_n{n}", run, check)


# -- conics --------------------------------------------------------------


class Conics(Workload):
    """CLI conic on bundles a x^2 + b y^2 = z^2 over F_5 and F_13 with
    coefficient degree <= 4, and library point counts at every degenerate
    place.  Places of degree >= 2 come from a small seeded pool per field,
    so the square-root tables the program caches stay a fixed working set
    rather than growing with the number of ops run.  Every bundle of a
    round has the same shape, so its cost depends on q and d only."""

    POOL = {5: {2: 2, 3: 2, 4: 2}, 13: {2: 3, 3: 2, 4: 2}}
    # degree of the pool place with odd exponent in a, one bundle each; the
    # two degree-4 bundles over F_13 are a seventh of the ops and set p90,
    # and the seven bundles near 15 ms (F_13 degree 1, F_5 degree 3) set p50
    MIX = {5: (1, 2, 3, 4), 13: (1, 1, 1, 1, 1, 1, 2, 3, 4, 4)}

    def __init__(self, seed, small=False, skew=0):
        super().__init__(seed, small, skew)
        rng = self.rng("pool")
        self.pool = {}
        for q, sizes in self.POOL.items():
            for d, count in sizes.items():
                chosen = []
                while len(chosen) < count:
                    f = O.random_irreducible(rng, q, d)
                    if f not in chosen:
                        chosen.append(f)
                self.pool[q, d] = chosen

    def ops(self, rng):
        mix = {5: (1, 2)} if self.small else self.MIX
        return [self.bundle(rng, q, d) for q, degrees in mix.items()
                for d in degrees]

    @staticmethod
    def expand(factors, const, q):
        num, den = [const], [1]
        for f, e in factors.items():
            for _ in range(abs(e)):
                if e > 0:
                    num = O.pmul(num, list(f), q)
                else:
                    den = O.pmul(den, list(f), q)
        return num, den

    def bundle(self, rng, q, d):
        """One op: CLI conic, then count_fiber_points at every degenerate
        place (e = 1, and e = 2 at degree-1 places)."""
        # a = ca * P / L1 and b = cb * L2 / L3^2 with distinct degree-1
        # places Li, and P a pool place of degree d (a fifth one for d = 1):
        # the fibers at P, L1, L2 and inf degenerate, whatever the seed
        lines = [((-c) % q, 1) for c in rng.sample(range(q), 5)]
        odd = tuple(rng.choice(self.pool[q, d])) if d > 1 else lines[4]
        fa = {odd: 1, lines[0]: -1}
        fb = {lines[1]: 1, lines[2]: -2}
        a = self.expand(fa, rng.randrange(1, q), q)
        b = self.expand(fb, rng.randrange(1, q), q)

        def val(factors, ab, place):
            if place == O.INF:
                return len(ab[1]) - len(ab[0])
            return factors.get(place, 0)

        places = sorted(set(fa) | set(fb), key=lambda f: (len(f), f[::-1]))
        places.append(O.INF)
        degenerate = [P for P in places
                      if val(fa, a, P) % 2 or val(fb, b, P) % 2]
        names = {P: ("inf" if P == O.INF else O.poly_str(list(P)))
                 for P in degenerate}
        counts = [(P, e) for P in degenerate
                  for e in ((1, 2) if P == O.INF or len(P) == 2 else (1,))]
        argv = ["conic", "--q", str(q), "--a", O.ratfunc_str(*a),
                "--b", O.ratfunc_str(*b)]

        def run():
            out = run_cli(argv)
            F = brauer.FiniteField(q)
            C = brauer.ConicBundle(
                brauer.RatFunc(brauer.Poly(F, a[0]), brauer.Poly(F, a[1])),
                brauer.RatFunc(brauer.Poly(F, b[0]), brauer.Poly(F, b[1])))
            points = []
            for P, e in counts:
                place = (brauer.Place.infinity(F) if P == O.INF
                         else brauer.Place(F, brauer.Poly(F, list(P))))
                points.append(brauer.count_fiber_points(C, place, e))
            return out, points

        def check(result):
            payload, err = cli_payload(result[0])
            if err:
                return err
            ramified = set()
            for row in payload["results"]["places"]:
                if row["agree"] is not True:
                    return f"agree flag false at {row['place']}"
                if row["place"] not in names.values():
                    return f"ramified at a smooth fiber {row['place']}"
                ramified.add(row["place"])
            for P in degenerate:
                if P == O.INF or len(P) == 2:
                    c = P if P == O.INF else (-P[0]) % q
                    want = bool(O.tame_residue([(a, b, 1)], c, q, 2))
                    bad = _mismatch(f"ramified at {names[P]}",
                                    names[P] in ramified,
                                    want != bool(self.skew))
                    if bad:
                        return bad
            for (P, e), got in zip(counts, result[1]):
                Q = q ** (e * (1 if P == O.INF else len(P) - 1))
                # a degenerate fiber is two lines (2Q+1 points) when split
                # and one point when not; over F_q^2 it always splits
                split = e == 2 or names[P] not in ramified
                bad = _mismatch(f"points at {names[P]} (e={e})", got,
                                (2 * Q + 1 if split else 1) + self.skew)
                if bad:
                    return bad
            return _mismatch("pass", payload["pass"], True)

        return Op(f"bundle_q{q}_d{d}", run, check)


# -- cohomology ----------------------------------------------------------


RANK_GROUPS = ((2,), (3,), (4,), (5,), (6,), (2, 2), (2, 3), (3, 3))
GAMMA = ((2, (5, 7)), (2, (13,)), (3, (7,)), (3, (13,)), (4, (5,)),
         (4, (13,)))


def rank_grid(cap):
    """(factors, k) with |G|^(k+1) <= cap and k >= 1."""
    out = []
    for factors in RANK_GROUPS:
        size = 1
        for f in factors:
            size *= f
        k = 1
        while size ** (k + 1) <= cap:
            out.append((factors, k))
            k += 1
    return out


class Cohomology(Workload):
    """CLI cohomology rank / gamma / edge / epsilon and library
    cocycles_cohomologous and shifted edge maps; no polynomial work.

    A round runs the rank grid, Gamma, edge and epsilon cases once; they
    take nearly all of its time.  Per-op times swing by about a tenth with
    machine speed even after normalisation, so each latency quantile is
    anchored in a block of same-cost ops rather than among the few big
    ones: 76 cohomologous checks on Z/2 x Z/2 (about 1.4 ms) span p50, and
    24 on Z/3 x Z/3 (about 50 ms) span p90, above which sit the 17 ops
    over 55 ms."""

    def ops(self, rng):
        if self.small:
            grid, gamma, edges, epsilons = rank_grid(16), GAMMA[:1], (2, 3), 4
            shifts, pairs = {2: 1, 3: 1}, {2: 1}
        else:
            grid, gamma, edges = rank_grid(256), GAMMA, (2, 3, 5, 7)
            epsilons = 12
            shifts, pairs = {2: 72, 3: 3, 5: 3, 7: 3}, {2: 38, 3: 12}
        out = [self.rank(f, k, i) for i, (f, k) in enumerate(grid)]
        out += [self.gamma(n, rng.choice(qs)) for n, qs in gamma]
        out += [self.edge(n) for n in edges]
        out += [self.epsilon(n) for n in range(2, epsilons + 1)]
        for n, count in shifts.items():
            out += [self.shifted_edge(rng, n) for _ in range(count)]
        for n, count in pairs.items():
            for _ in range(count):
                out.append(self.cohomologous(rng, n, True))
                out.append(self.cohomologous(rng, n, False))
        return out

    def rank(self, factors, k, case):
        # m is fixed per grid case, not drawn from the seed: it moves the
        # cost of the largest cases by a third, which would move p90 and
        # throughput between seeds and between rounds
        ms = (2, 3, 4, 5, 6) if len(factors) == 1 else (2, 3, 5, 6)
        m = ms[case % len(ms)]
        want = O.cohomology_invariants(factors, m, k)
        if self.skew:
            want = want + [m]

        def check(result):
            payload, err = cli_payload(result)
            if err:
                return err
            return _mismatch(f"H^{k}({factors}, Z/{m})",
                             payload["results"]["invariant_factors"], want)

        return Op(f"rank_{'x'.join(map(str, factors))}_k{k}", lambda: run_cli(
            ["cohomology", "rank", "--n", str(factors[0]), "--factors",
             ",".join(map(str, factors)), "--m", str(m), "--degree", str(k)]),
            check)

    def flags(self, kind, argv, keys):
        def check(result):
            payload, err = cli_payload(result)
            if err:
                return err
            for key in keys:
                bad = _mismatch(key, payload["results"][key], not self.skew)
                if bad:
                    return bad
            return _mismatch("pass", payload["pass"], True)

        return Op(kind, lambda: run_cli(argv), check)

    def gamma(self, n, q):
        return self.flags(f"gamma_n{n}", ["cohomology", "gamma", "--n", str(n),
                                          "--q", str(q)],
                          ("cohomologous_to_minus_boxtimes", "nontrivial"))

    def edge(self, n):
        want = [(b + self.skew) % n for b in range(n)]

        def check(result):
            payload, err = cli_payload(result)
            if err:
                return err
            return (_mismatch("edge values", payload["results"]["edge_values"],
                              want)
                    or _mismatch("pass", payload["pass"], True))

        return Op(f"edge_n{n}", lambda: run_cli(["cohomology", "edge", "--n",
                                           str(n)]), check)

    def shifted_edge(self, rng, n):
        """1 x 1 plus a seeded coboundary still maps to the identity."""
        shift_seed = rng.randrange(2 ** 32)
        want = [(b + self.skew) % n for b in range(n)]

        def run():
            box = brauer.cup_product_boxtimes(n)
            shift = brauer.coboundary(brauer.Cochain.random(
                box.group, 1, n, random.Random(shift_seed)))
            edge = brauer.lhs_edge_map(box + shift)
            return [edge((b,)) for b in range(n)]

        return Op(f"edge_shifted_n{n}", run,
                  lambda got: _mismatch("shifted edge values", got, want))

    def epsilon(self, n):
        want = O.epsilon_table(n)
        if self.skew:
            want = want[::-1]

        def check(result):
            payload, err = cli_payload(result)
            if err:
                return err
            return (_mismatch("epsilon table", payload["results"]["epsilon"],
                              want)
                    or _mismatch("pass", payload["pass"], True))

        return Op(f"epsilon_n{n}", lambda: run_cli(
            ["cohomology", "epsilon", "--n", str(n)]), check)

    def cohomologous(self, rng, n, shifted):
        """c vs c + d(b) (true) or c vs c + 1 x 1 (false), c random."""
        k, seed = rng.randrange(n), rng.randrange(2 ** 32)
        want = shifted != bool(self.skew)

        def run():
            r = random.Random(seed)
            box = brauer.cup_product_boxtimes(n)
            c = k * box + brauer.coboundary(
                brauer.Cochain.random(box.group, 1, n, r))
            other = (c + brauer.coboundary(
                brauer.Cochain.random(box.group, 1, n, r))
                if shifted else c + box)
            return brauer.cocycles_cohomologous(c, other)

        return Op(f"cohomologous_n{n}", run,
                  lambda got: _mismatch("cohomologous", got, want))


WORKLOADS = {"symbols": Symbols, "conics": Conics, "cohomology": Cohomology}
