"""No library module (but the re-exporting __init__.py) and no test module
imports a name it never uses; importing the package and its CLI loads no
dataclasses, inspect or fractions, and the value classes that were frozen
dataclasses keep their constructors, validation, ==, hash and repr."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import brauer
from brauer import (ConicBundle, FiniteField, FormalUnit, RatFunc,
                    ResidueClass, SymbolClass)

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "brauer").glob("*.py")
                 if p.name != "__init__.py") + sorted(
                     (ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    """Names bound by an import in source and never read as a name; an
    attribute chain a.b.c reads a."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - read)


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\nimport json as js\n"
              "from math import gcd, lcm\n"
              "def f(x: lcm):\n    return os.path.join(x)\n")
    assert unused_imports(source) == ["gcd", "js", "sys"]


def test_no_unused_imports():
    found = {p.relative_to(ROOT).as_posix(): unused_imports(p.read_text())
             for p in MODULES}
    assert {path: names for path, names in found.items() if names} == {}


def unread_private_definitions(sources):
    """Module-level _name functions and classes that no statement of the
    sources reads, their own definitions aside; an attribute x._name reads
    _name."""
    statements = [stmt for source in sources for stmt in ast.parse(source).body]

    def reads(stmt):
        return {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, ast.Attribute) or (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load))}

    read = [reads(stmt) for stmt in statements]
    return sorted(
        stmt.name for stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") and not stmt.name.startswith("__")
        and not any(stmt.name in names for other, names
                    in zip(statements, read) if other is not stmt))


def test_checker_finds_unread_definitions():
    sources = ["def _used():\n    return 1\n"
               "def _recursive(n):\n    return _recursive(n - 1)\n"
               "class _Unused:\n    pass\n"
               "def public():\n    return 2\n",
               "import m\nx = m._used()\n"]
    assert unread_private_definitions(sources) == ["_Unused", "_recursive"]


def test_no_unread_private_definitions():
    sources = [p.read_text() for p in (ROOT / "src" / "brauer").glob("*.py")]
    assert unread_private_definitions(sources) == []


def test_import_loads_no_dataclasses_inspect_or_fractions():
    # -S keeps site's own imports out of the check
    src = Path(brauer.__file__).resolve().parent.parent
    code = ("import sys, brauer, brauer.cli; print(' '.join(m for m in "
            "('dataclasses', 'inspect', 'fractions') if m in sys.modules))")
    run = subprocess.run([sys.executable, "-S", "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == ""


def test_value_classes_keep_their_contract():
    F = FiniteField(5)
    t, zeta = RatFunc.gen(F), F.zeta(2)
    r = ResidueClass(n=2, value=3, zeta=zeta)
    assert (r.n, r.value, r.zeta) == (2, 1, zeta) and repr(r) == "1 (mod 2)"
    assert r == ResidueClass(2, 1, zeta) and r == 1
    assert r != ResidueClass(4, 1, zeta)
    assert hash(r) == hash(ResidueClass(2, -1, zeta))

    a = SymbolClass(n=2, terms=[(t, t + 1), (t, 2 * t, 3)])
    assert a.terms == ((t, t + 1, 1), (t, 2 * t, 1)) and a.n == 2
    assert a == (SymbolClass.symbol(t, t + 1, 2)
                 + SymbolClass.symbol(t, 2 * t, 2))
    assert hash(a) == hash(SymbolClass(2, [(t, t + 1), (t, 2 * t)]))
    assert a != SymbolClass(4, [(t, t + 1), (t, 2 * t)]) and a != a.terms
    assert repr(a) == "(t, t+1)_2 + (t, 2*t)_2"
    with pytest.raises(ValueError):
        SymbolClass(1, [])
    with pytest.raises(ValueError):
        SymbolClass(3, [(t, t + 1)])  # 3 does not divide 5 - 1

    C = ConicBundle(a=t, b=t + 2)
    assert (C.a, C.b, C.field) == (t, t + 2, F)
    assert C == ConicBundle(t, t + 2) and C != ConicBundle(t + 2, t)
    assert hash(C) == hash(ConicBundle(t, t + 2))
    assert repr(C) == "(t)*x^2 + (t+2)*y^2 = z^2"
    with pytest.raises(ValueError):
        ConicBundle(t, RatFunc.gen(FiniteField(7)))
    with pytest.raises(ValueError):
        ConicBundle(t, t - t)

    u = FormalUnit(pi_steps=-3, zeta_exponent=7, n=6)
    assert (u.pi_steps, u.zeta_exponent, u.n) == (-3, 1, 6)
    assert repr(u) == "pi^(-1/2)*zeta^1"
    assert u == FormalUnit(-3, 1, 6) and u != FormalUnit(-3, 1, 12)
    assert hash(u) == hash(FormalUnit(-3, 13, 6))
    assert len({u, FormalUnit(-3, 1, 6), u.inverse()}) == 2
