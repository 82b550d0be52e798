"""Outside-in tracing of the brauer layers, for the benchmark's traced run.

Public functions are wrapped from outside: a wrapper replaces the function
in every `brauer.*` namespace that holds it, because `from .ratfunc import
valuation` copies the binding into the importing module.  `Poly` methods
are patched on the class.  No file of the library changes.

Each call records a span (name, start, end, parent) in flat arrays kept in
memory; a layer's self time is its spans' duration minus the part covered
by child spans.  Counters are taken at the same boundaries.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# (layer metric prefix, module, public function)
FUNCTIONS = (
    ("cli.main", "brauer.cli", "main"),
    ("parsing.parse", "brauer.parsing", "parse_poly"),
    ("parsing.parse", "brauer.parsing", "parse_ratfunc"),
    ("parsing.parse", "brauer.parsing", "parse_place"),
    ("parsing.parse", "brauer.parsing", "parse_symbol_sum"),
    ("finitefield.character", "brauer.finitefield", "power_residue_character"),
    ("finitefield.character", "brauer.finitefield", "corestrict"),
    ("ratfunc.valuation", "brauer.ratfunc", "valuation"),
    ("ratfunc.reduce_at", "brauer.ratfunc", "reduce_at"),
    ("ratfunc.support", "brauer.ratfunc", "support"),
    ("residues.tame_residue", "brauer.residues", "tame_residue"),
    ("residues.reciprocity_sum", "brauer.residues", "reciprocity_sum"),
    ("residues.cocycle_route", "brauer.residues", "residue_cocycle_route"),
    ("cohomology.epsilon_check", "brauer.cohomology",
     "verify_coboundary_identity"),
    ("cohomology.rank", "brauer.cohomology", "cohomology_rank"),
    ("cohomology.coboundary_matrix", "brauer.cohomology", "coboundary_matrix"),
    ("cohomology.factor_set", "brauer.cohomology", "extension_factor_set"),
    ("cohomology.cohomologous", "brauer.cohomology", "cocycles_cohomologous"),
    ("snf.smith_normal_form", "brauer.snf", "smith_normal_form"),
    ("snf.solve_mod", "brauer.snf", "solve_mod"),
    ("conic.count_fiber_points", "brauer.conic", "count_fiber_points"),
    ("conic.check_artin", "brauer.conic", "check_artin"),
)
POLY_METHODS = (("poly.factor", "factor"), ("poly.is_irreducible",
                                            "is_irreducible"),
                ("poly.pow_mod", "pow_mod"), ("poly.gcd", "gcd"))

# per-layer metrics reported from the spans: (layer, ".calls"/".self_ms")
CALLS = ("cli.main", "parsing.parse", "finitefield.character", "poly.factor",
         "poly.is_irreducible", "poly.pow_mod", "poly.gcd",
         "ratfunc.valuation", "ratfunc.reduce_at", "ratfunc.support",
         "residues.tame_residue", "residues.cocycle_route",
         "cohomology.epsilon_check", "snf.smith_normal_form", "snf.solve_mod",
         "conic.count_fiber_points")
SELF_MS = ("cli.main", "parsing.parse", "finitefield.character",
           "poly.factor", "poly.is_irreducible", "poly.pow_mod", "poly.gcd",
           "ratfunc.valuation", "ratfunc.reduce_at", "residues.tame_residue",
           "residues.reciprocity_sum", "residues.cocycle_route",
           "cohomology.epsilon_check", "cohomology.rank",
           "cohomology.factor_set", "cohomology.cohomologous",
           "snf.smith_normal_form", "conic.count_fiber_points",
           "conic.check_artin")


def _brauer_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "brauer"
                                  or name.startswith("brauer."))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of, self.parent = array("q"), array("q")
        self.start, self.end = array("q"), array("q")
        self.stack: list[int] = []
        self.counts = Counter()
        self.fields: set = set()
        self.epsilon_keys: set = set()
        self._undo: list = []  # (namespace, attribute, original)

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack, clock = self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        from brauer.finitefield import FiniteField
        from brauer.poly import Poly
        from brauer.ratfunc import valuation

        observers = {
            "support": lambda a, k, r: self.count("ratfunc.support.places",
                                                  len(r)),
            "tame_residue": lambda a, k, r: self.count(
                "residues.nonzero", not r.is_zero()),
            "verify_coboundary_identity": lambda a, k, r:
                self.epsilon_keys.add((a[0], a[1] if len(a) > 1
                                       else k.get("power", 1))),
            "coboundary_matrix": lambda a, k, r: self.count(
                "cohomology.coboundary_matrix.cells",
                len(r) * (len(r[0]) if r else 0)),
            "smith_normal_form": lambda a, k, r: self.count(
                "snf.smith_normal_form.cells",
                len(a[0]) * (len(a[0][0]) if a[0] else 0)),
            "count_fiber_points": lambda a, k, r: self.count(
                "conic.points_enumerated", _points(valuation, *a, **k)),
        }
        modules = _brauer_modules()
        for layer, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(layer, original, observers.get(attr))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for layer, attr in POLY_METHODS:
            observe = None
            if attr == "factor":
                observe = lambda a, k, r: self.count(  # noqa: E731
                    "poly.factor.degree_sum", a[0].degree)
            self._set(Poly, attr, self.wrap(layer, getattr(Poly, attr),
                                             observe))

        new = FiniteField.__dict__["__new__"].__func__

        def counting_new(cls, *args, **kwargs):
            field = new(cls, *args, **kwargs)
            self.fields.add((field.p, field.d, field.modulus))
            return field

        self._set(FiniteField, "__new__", staticmethod(counting_new))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def count(self, key, amount=1):
        self.counts[key] += amount

    # -- results --------------------------------------------------------------

    def self_times(self):
        """{layer: (calls, self_ns)} from the recorded spans."""
        n = len(self.name_of)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: [0, 0] for name in self.names}
        for i in range(n):
            acc = out[self.names[self.name_of[i]]]
            acc[0] += 1
            acc[1] += self.end[i] - self.start[i] - child[i]
        return out

    def summary(self):
        """Per-layer counts and self times (ns, not yet normalised)."""
        times = self.self_times()
        metrics = {}
        for layer in CALLS:
            metrics[f"{layer}.calls"] = times.get(layer, (0, 0))[0]
        self_ns = {f"{layer}.self_ms": times.get(layer, (0, 0))[1]
                   for layer in SELF_MS}
        c = self.counts
        evaluated = metrics["residues.tame_residue.calls"]
        eps_calls = metrics["cohomology.epsilon_check.calls"]
        metrics.update({
            "finitefield.fields.distinct": len(self.fields),
            "poly.factor.degree_sum": c["poly.factor.degree_sum"],
            "ratfunc.support.places": c["ratfunc.support.places"],
            "residues.ramified_ratio":
                c["residues.nonzero"] / evaluated if evaluated else 0.0,
            "cohomology.epsilon_check.distinct_ratio":
                len(self.epsilon_keys) / eps_calls if eps_calls else 0.0,
            "cohomology.coboundary_matrix.cells":
                c["cohomology.coboundary_matrix.cells"],
            "snf.smith_normal_form.cells": c["snf.smith_normal_form.cells"],
            "conic.points_enumerated": c["conic.points_enumerated"],
        })
        return {"metrics": metrics, "self_ns": self_ns,
                "spans": len(self.name_of)}

    def write_spans(self, path):
        """All spans as {"names": [...], "spans": [[name, start_ns, end_ns,
        parent], ...]}, parent -1 for a root."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "spans": [list(s) for s in zip(
                           self.name_of, self.start, self.end, self.parent)]},
                      fh, separators=(",", ":"))


def _points(valuation, C, P, e=1):
    """Points the oracle visits: Q for a degenerate fiber, Q^2 otherwise,
    with Q = |kappa(P)|^e."""
    Q = P.field.order ** (P.degree * e)
    degenerate = valuation(C.a, P) % 2 or valuation(C.b, P) % 2
    return Q if degenerate else Q * Q
