"""No library module (but the re-exporting __init__.py) and no test module
imports a name it never uses."""

import ast
from pathlib import Path

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
