"""Command-line front end.

Each ``cmd_*`` function maps its parsed arguments to (params, results,
pass, text lines) and prints nothing.  ``main`` alone does the rest: it
names the command (``cohomology <sub>`` for cohomology), builds the JSON
payload {"command", "params", "results", "pass"}, or {"command", "error",
"exit"} for an error from ``_ERRORS``, prints it or the text lines, and
picks the exit code.

The parser is argparse's, built once per process.  As ``build_parser``
adds each argument it records the action in its subcommand's option
table (``_Options``), so each flag is written once.  A well-formed
command line is read from that table into the Namespace argparse would
build: the subcommand's name, for ``cohomology`` a valid choice, then
exact ``--flag value`` pairs whose values start with no ``-`` and pass
their ``type`` and ``choices``, with every required flag present.  Any
other line is parsed by the top-level argparse parser, so argparse alone
prints help and usage errors.  The payload is printed by
``_indented``, which lays out the text of ``json.dumps(payload,
indent=2)`` itself and encodes each key and scalar with the json module's
C encoder, which ``json.dumps`` uses only without an indent.

Exit codes: 0 all checks passed, 1 a verified identity failed, 2 parse
error, 3 constraint violation (bad q/n combination, or any other
ValueError), 4 size guard exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .cohomology import (FiniteAbelianGroup, Cochain, TableSizeError,
                         _epsilon_checked, cohomology_rank,
                         cocycles_cohomologous, cup_product_boxtimes,
                         extension_factor_set, identity_character,
                         lhs_edge_map)
from .conic import ConicBundle, check_artin, count_fiber_points
from .finitefield import FiniteField, ResidueClass, is_prime
from .parsing import ParseError, parse_place, parse_ratfunc, parse_symbol_sum
from .residues import (SymbolClass, ramification_divisor, reciprocity_sum,
                       residue_cocycle_route, tame_residue)

EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_CONSTRAINT = 3
EXIT_SIZE = 4


class ConstraintError(ValueError):
    pass


def _field_for(q: int, n: int | None = None, odd: bool = False) -> FiniteField:
    if not is_prime(q):
        raise ConstraintError(f"q={q} must be prime")
    if odd and q == 2:
        raise ConstraintError("odd characteristic required")
    if n is not None:
        if n < 2:
            raise ConstraintError("n must be >= 2")
        if (q - 1) % n != 0:
            raise ConstraintError(f"n must divide q-1 (got n={n}, q={q})")
    return FiniteField(q)


def _residue_json(r: ResidueClass) -> dict:
    return {"value": r.value, "n": r.n, "zeta": r.zeta.key()}


# ---------------------------------------------------------------------------


def cmd_residue(args):
    F = _field_for(args.q, args.n)
    alpha = parse_symbol_sum(args.symbol, F, args.n)
    P = parse_place(args.place, F)
    r = tame_residue(alpha, P)
    return ({"q": args.q, "n": args.n, "symbol": args.symbol, "place": str(P)},
            {"residue": _residue_json(r)}, True,
            [f"{r.value} (zeta={r.zeta!r})"])


def cmd_ramification(args):
    F = _field_for(args.q, args.n)
    alpha = parse_symbol_sum(args.symbol, F, args.n)
    div = ramification_divisor(alpha)
    return ({"q": args.q, "n": args.n, "symbol": args.symbol},
            {"divisor": [{"place": str(P), "residue": _residue_json(r)}
                         for P, r in div.items()]}, True, [repr(div)])


def cmd_reciprocity(args):
    F = _field_for(args.q, args.n)
    alpha = parse_symbol_sum(args.symbol, F, args.n)
    total = (reciprocity_sum(alpha) if alpha.terms
             else ResidueClass(args.n, 0, F.zeta(args.n)))
    lines = []
    if args.format == "text" and alpha.terms:  # only text lists the places
        lines = [f"  {P}: {r.value}"
                 for P, r in ramification_divisor(alpha).items()]
    lines.append(f"sum={total.value}")
    return ({"q": args.q, "n": args.n, "symbol": args.symbol},
            {"sum": _residue_json(total)}, total.is_zero(), lines)


def cmd_cohomology(args):
    n = args.n
    # rank with both --factors and --m never reads n
    uses_n = not (args.subcommand == "rank" and args.factors is not None
                  and args.m is not None)
    if uses_n and n is None:
        raise ParseError(f"--n is required for cohomology {args.subcommand}")
    if uses_n and n < 2:
        raise ConstraintError("n must be >= 2")
    results: dict = {}
    params = {"n": n, "q": args.gamma_q}
    ok = True
    if args.subcommand == "edge":
        edge = lhs_edge_map(cup_product_boxtimes(n))
        ok = edge == identity_character(n)
        results["edge_values"] = [edge((b,)) for b in range(n)]
        line = (f"1_boxtimes_1 -> {'1' if ok else results['edge_values']}"
                f" : {'PASS' if ok else 'FAIL'}")
    elif args.subcommand == "epsilon":
        eps, ok = _epsilon_checked(n)  # the table the check walked
        if args.format == "json":  # text prints only the verdict
            text = functools.cache(str)  # once per distinct unit
            results["epsilon"] = [[text(eps[b, b2]) for b2 in range(n)]
                                  for b in range(n)]
        line = f"coboundary identity {'PASS' if ok else 'FAIL'}"
    elif args.subcommand == "gamma":
        if args.gamma_q is None:
            raise ConstraintError("gamma requires --q")
        _field_for(args.gamma_q, n)
        s = extension_factor_set(n, args.gamma_q)
        target = -1 * cup_product_boxtimes(n)
        zero = Cochain(s.group, 2, n)
        matches = cocycles_cohomologous(s, target)
        nontrivial = not cocycles_cohomologous(s, zero)
        ok = matches and nontrivial
        results["cohomologous_to_minus_boxtimes"] = matches
        results["nontrivial"] = nontrivial
        line = f"factor set ~ -(1x1) : {'PASS' if ok else 'FAIL'}"
    else:  # rank
        try:
            factors = ([int(x) for x in args.factors.split(",")]
                       if args.factors is not None else [n])
        except ValueError:
            raise ParseError("--factors takes comma-separated integers, "
                             f"got {args.factors!r}") from None
        m = n if args.m is None else args.m
        params.update(factors=factors, m=m, degree=args.degree)
        ranks = cohomology_rank(FiniteAbelianGroup(factors), m, args.degree)
        results["invariant_factors"] = ranks
        line = (f"H^{args.degree}({' x '.join(f'Z/{f}' for f in factors)},"
                f" Z/{m}) = {ranks}")
    return params, results, ok, [line]


def cmd_conic(args):
    F = _field_for(args.q, n=2, odd=True)
    a = parse_ratfunc(args.a, F)
    b = parse_ratfunc(args.b, F)
    if a.is_zero() or b.is_zero():
        raise ParseError("conic coefficients must be nonzero")
    rows = check_artin(ConicBundle(a, b))
    lines = [f"  place={P} geometric={geo.value} residue={res.value} "
             f"agree={str(agree).lower()}" for P, geo, res, agree in rows]
    return ({"q": args.q, "a": args.a, "b": args.b},
            {"places": [{"place": str(P), "geometric": _residue_json(geo),
                         "residue": _residue_json(res), "agree": agree}
                        for P, geo, res, agree in rows]},
            all(agree for _, _, _, agree in rows),
            lines or ["unramified everywhere"])


def cmd_selftest(args):
    from .poly import Poly
    from .ratfunc import RatFunc, _divisor, valuation
    if args.rounds < 1:
        raise ConstraintError(f"--rounds must be >= 1, got {args.rounds}")
    seed = int(os.environ.get("BRAUER_SEED", "0"))
    rng = random.Random(seed)
    # the route checks draw from their own stream, so the symbols and
    # bundles drawn for a seed do not depend on them
    route_rng = random.Random(f"route:{seed}")
    failures = []
    lines = []

    def rand_ratfunc(F, q, max_deg=4, rng=rng):
        while True:
            num = Poly(F, [rng.randrange(q) for _ in range(rng.randrange(1, max_deg + 2))])
            den = Poly(F, [rng.randrange(q) for _ in range(rng.randrange(1, max_deg + 2))])
            if not num.is_zero() and not den.is_zero():
                f = RatFunc(num, den)
                if not f.is_zero():
                    return f

    for q in (5, 13):
        F = FiniteField(q)
        for _ in range(args.rounds):
            n = rng.choice([m for m in (2, 4) if (q - 1) % m == 0])
            a, b = rand_ratfunc(F, q), rand_ratfunc(F, q)
            if not reciprocity_sum(SymbolClass.symbol(a, b, n)).is_zero():
                failures.append(f"reciprocity ({a},{b})_{n} over F_{q}")
            # the norm route (tame_residue) against the kappa(P) route
            # (residue_cocycle_route) at a place of degree 1-3 of a or b
            places = [P for f in (a, b) for P in _divisor(f) if P.degree <= 3]
            if places:
                P = route_rng.choice(places)
                j = route_rng.randrange(n)
                u = rand_ratfunc(F, q, rng=route_rng)
                while valuation(u, P):
                    u = rand_ratfunc(F, q, rng=route_rng)
                pi_j = SymbolClass.symbol(RatFunc(P.poly) ** j, u, n)
                if tame_residue(pi_j, P) != residue_cocycle_route(j, u, P, n):
                    failures.append(f"route (({P})^{j}, {u})_{n} over F_{q}")
            if a != 1 and not (1 - a).is_zero():
                if ramification_divisor(
                        SymbolClass.symbol(a, 1 - a, n)).entries:
                    failures.append(f"steinberg a={a} over F_{q}")
            Ca = rand_ratfunc(F, q)
            Cb = rand_ratfunc(F, q)
            C = ConicBundle(Ca, Cb)
            for P, _, _, agree in check_artin(C):
                if not agree:
                    failures.append(f"conic ({Ca},{Cb}) at {P} over F_{q}")
                # a ramified fiber is two conjugate lines: the singular
                # point alone, and 2k^2 + 1 points once they split over
                # the quadratic extension of kappa(P), of order k^2; a
                # count past the size guard is skipped
                k = q ** P.degree
                try:
                    if (count_fiber_points(C, P) != 1
                            or count_fiber_points(C, P, 2) != 2 * k * k + 1):
                        failures.append(
                            f"conic points ({Ca},{Cb}) at {P} over F_{q}")
                except TableSizeError:
                    pass
        lines.append(f"F_{q}: {args.rounds} rounds done")
    lines.append("selftest " + ("FAIL" if failures else "PASS"))
    return ({"seed": seed, "rounds": args.rounds}, {"failures": failures},
            not failures, lines + failures)


# ---------------------------------------------------------------------------


class _Options:
    """A subcommand's argparse parser and its option table, recorded as
    ``add`` and ``set_defaults`` pass each argument to the parser: the
    positional action (cohomology's) or None, the flags' actions by option
    string, the required ones, and the Namespace's defaults, each action's
    and then the parser's."""

    __slots__ = ("parser", "positional", "flags", "required", "defaults")

    def __init__(self, parser):
        self.parser, self.positional = parser, None
        self.flags, self.required, self.defaults = {}, [], {}

    def add(self, *names, **kwargs):
        action = self.parser.add_argument(*names, **kwargs)
        for name in action.option_strings:
            self.flags[name] = action
        if not action.option_strings:
            self.positional = action
        elif action.required:
            self.required.append(action)
        self.defaults[action.dest] = action.default

    def set_defaults(self, **kwargs):
        self.parser.set_defaults(**kwargs)
        self.defaults.update(kwargs)

    def read(self, words):
        """The Namespace's items for the words after the subcommand, or
        None when they are not well formed: the positional first, then
        exact flag and value pairs, the last value of a flag winning."""
        values, seen, i = dict(self.defaults), set(), 0
        if self.positional is not None:
            if not words or not _store(values, self.positional, words[0]):
                return None
            i = 1
        if (len(words) - i) % 2:
            return None
        flags = self.flags
        for j in range(i, len(words), 2):
            action = flags.get(words[j])
            if action is None or not _store(values, action, words[j + 1]):
                return None
            seen.add(action)
        return values if seen.issuperset(self.required) else None


def _store(values, action, word) -> bool:
    """Whether word is a value argparse stores for action unchanged, stored
    into values: it starts with no "-", and passes the action's type
    conversion and choices; a failure is argparse's to report."""
    if word.startswith("-"):
        return False
    if action.type is not None:
        try:
            word = action.type(word)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return False  # the errors argparse reports as invalid values
    if action.choices is not None and word not in action.choices:
        return False
    values[action.dest] = word
    return True


def build_parser():
    """(the top-level parser, {subcommand name: its _Options})."""
    parser = argparse.ArgumentParser(
        prog="brauer",
        description="Residues of n-torsion Brauer classes over F_q(t): "
                    "tame symbols, cocycle calculus, conic bundles.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add_parser(name, about):
        p = commands[name] = _Options(sub.add_parser(name, help=about))
        return p

    def add_format(p):
        p.add("--format", choices=("text", "json"), default="text")

    for name, about, func in (
            ("residue", "residue of a symbol sum at a place", cmd_residue),
            ("ramification", "full ramification divisor", cmd_ramification),
            ("reciprocity", "sum of corestricted residues", cmd_reciprocity)):
        p = add_parser(name, about)
        p.add("--q", type=int, required=True)
        p.add("--n", type=int, required=True)
        p.add("--symbol", required=True)
        if name == "residue":
            p.add("--place", required=True)
        add_format(p)
        p.set_defaults(func=func)

    p = add_parser("cohomology", "cocycle-level verifications")
    p.add("subcommand", choices=("edge", "epsilon", "gamma", "rank"))
    p.add("--n", type=int, help="required unless rank has --factors and --m")
    p.add("--q", type=int, dest="gamma_q")
    p.add("--factors", help="cyclic factors for rank, e.g. 2,2")
    p.add("--m", type=int, help="coefficient modulus for rank")
    p.add("--degree", type=int, default=2, help="degree for rank")
    add_format(p)
    p.set_defaults(func=cmd_cohomology)

    p = add_parser("conic", "geometric vs cohomological residues")
    p.add("--q", type=int, required=True)
    p.add("--a", required=True)
    p.add("--b", required=True)
    add_format(p)
    p.set_defaults(func=cmd_conic)

    p = add_parser("selftest",
                   "randomized property suites (seed via BRAUER_SEED)")
    p.add("--rounds", type=int, default=25)
    add_format(p)
    p.set_defaults(func=cmd_selftest)

    return parser, commands


# one parser per process: parsing leaves no state on it
_parser = functools.cache(build_parser)


def _parse(argv):
    """parse_args(argv) of the top-level parser: a well-formed command line
    read from its subcommand's option table, any other parsed by argparse."""
    parser, commands = _parser()
    options = commands.get(argv[0]) if argv else None
    values = None if options is None else options.read(argv[1:])
    if values is None:
        return parser.parse_args(argv)
    return argparse.Namespace(command=argv[0], **values)


_str_json = json.encoder.encode_basestring_ascii
_scalar_json = json.JSONEncoder().encode


def _indented(obj, pad="\n") -> str:
    """json.dumps(obj, indent=2) for obj with str keys, pad being the
    newline and indent of obj's line: containers are laid out here, and
    every key and scalar is encoded by the json module's C encoder (ints by
    int.__repr__, as both of its encoders do)."""
    kind = type(obj)
    if kind is str:
        return _str_json(obj)
    if kind is int:
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{%s%s%s}" % (inner, ("," + inner).join(
            [_str_json(k) + ": " + _indented(v, inner)
             for k, v in obj.items()]), pad)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[%s%s%s]" % (inner, ("," + inner).join(
            [_indented(x, inner) for x in obj]), pad)
    return _scalar_json(obj)  # bool, None, float, a str or int subclass


# (exception, stderr prefix, JSON kind, exit code), most specific first; the
# first three are ValueErrors too
_ERRORS = ((ParseError, "parse error", "parse", EXIT_PARSE),
           (ConstraintError, "constraint violation", "constraint",
            EXIT_CONSTRAINT),
           (TableSizeError, "size guard", "size", EXIT_SIZE),
           ((ValueError, ZeroDivisionError), "constraint violation",
            "constraint", EXIT_CONSTRAINT))


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    command = args.command + (f" {args.subcommand}"
                              if args.command == "cohomology" else "")
    try:
        params, results, ok, lines = args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        prefix, kind, code = next(rest for cls, *rest in _ERRORS
                                  if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        payload = {"command": command,
                   "error": {"kind": kind, "message": str(exc)}, "exit": code}
        lines = []
    else:
        code = 0 if ok else EXIT_CHECK_FAILED
        payload = {"command": command, "params": params, "results": results,
                   "pass": ok}
    if args.format == "json":
        print(_indented(payload))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
