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
