"""Mutation check for the tier-1 suite, outside pytest's collection.

Each mutant is one exact text replacement in a file under src/, with the
reason it must fail the suite.  For each, the script copies src/, tests/,
README.md and pyproject.toml into a temporary directory, applies the
mutant there, and runs the suite with -x against that copy; the working
tree is never written.  The unmutated copy runs first and must pass, so a
broken suite cannot pass for a killed mutant.  Exit status: 0 when every
mutant not marked equivalent is killed, 1 when one survives, 2 when the
unmutated suite fails or a mutant's old text is not found exactly once.

    python tests/mutants.py

A change that claims "this mutant fails tier-1" adds it here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "README.md", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # found exactly once in the file
    new: str
    reason: str
    equivalent: bool = False  # a survivor that changes no behaviour


MUTANTS = (
    Mutant("cochain-sub-unreduced", "src/brauer/cohomology.py",
           "return self._new([(a - b) % m for a, b in zip(self.values,",
           "return self._new([(a - b) for a, b in zip(self.values,",
           "Cochain.__sub__ hands _raw values outside [0, m)"),
    Mutant("boxtimes-unreduced", "src/brauer/cohomology.py",
           "[g0 * h1 % n for h1 in range(n)]",
           "[g0 * h1 for h1 in range(n)]",
           "cup_product_boxtimes hands _raw products of n or more"),
    Mutant("raw-group-unlisted", "src/brauer/cohomology.py",
           "        if degree:\n            group.elements()\n"
           "        self = object.__new__(cls)",
           "        self = object.__new__(cls)",
           "a degree-0 cochain's coboundary on a fresh group cannot be "
           "read where _faces was cached for an equal group"),
    Mutant("divmod-unreduced", "src/brauer/poly.py",
           "return quo, _trim([c % p for c in rem[:nb]])",
           "return quo, _trim(rem[:nb])",
           "_divmod over F_p leaves its remainder's keys unreduced"),
    Mutant("is-prime-30031", "src/brauer/finitefield.py",
           "    if n < 2:\n        return False\n",
           "    if n < 2:\n        return False\n    if n == 30031:\n"
           "        return True\n",
           "is_prime calls 30031 = 59 * 509 prime"),
    Mutant("rational-place-sign", "src/brauer/ratfunc.py",
           "_deflate(F, g, -pi[0] % F.p)",
           "_deflate(F, g, pi[0] % F.p)",
           "the place t - c is read at t = -c, not at its root c"),
    Mutant("root-free-quartic", "src/brauer/poly.py",
           "if 1 < len(a) <= 4:", "if 1 < len(a) <= 5:",
           "the root scan calls a root-free quartic irreducible"),
    Mutant("root-scan-short", "src/brauer/poly.py",
           "for c in range(p):", "for c in range(p - 1):",
           "the root scan skips the root c = p - 1"),
    Mutant("option-choices-unchecked", "src/brauer/cli.py",
           "if action.choices is not None and word not in action.choices:",
           "if False:",
           "the option table reads --format xml, which argparse refuses"),
    Mutant("option-dash-value", "src/brauer/cli.py",
           '    if word.startswith("-"):\n        return False\n', "",
           "the option table reads --symbol -t, or a flag as a value, where "
           "argparse reports a missing argument"),
    Mutant("tokens-uncovered", "src/brauer/parsing.py",
           'if len("".join(tokens)) == len("".join(s.split())):',
           "if True:",
           "the tokenizer skips a character that starts no token"),
    Mutant("ratfunc-not-monic", "src/brauer/ratfunc.py",
           "            if b[-1] != 1:\n", "            if False:\n",
           "RatFunc leaves its denominator's leading key as given"),
    Mutant("fiber-count-parity", "src/brauer/conic.py",
           "[embed(abar or bbar)] % 2 else",
           "[embed(abar or bbar)] % 2 == 0 else",
           "the point count reads an even log, a square, as non-split"),
    Mutant("fiber-both-odd-sign", "src/brauer/conic.py",
           "return 0, kappa._kneg(kappa._kmul(ua, ub))",
           "return 0, kappa._kmul(ua, ub)",
           "the reduced fiber with both valuations odd drops the sign of "
           "(a, -a*b)"),
)


def run_suite(tree: Path) -> bool:
    """Whether the tier-1 suite passes on the copy at tree, stopping at the
    first failure."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def fresh_copy(scratch: Path) -> Path:
    tree = Path(tempfile.mkdtemp(dir=scratch))
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, tree / name)
    return tree


def main() -> int:
    for m in MUTANTS:
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1:
            print(f"{m.name}: old text found {count} times in {m.file}")
            return 2
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        start = time.perf_counter()
        if not run_suite(fresh_copy(scratch)):
            print("the unmutated suite fails; no mutant was run")
            return 2
        print(f"unmutated suite passes ({time.perf_counter() - start:.1f} s)")
        survivors = []
        for m in MUTANTS:
            tree = fresh_copy(scratch)
            path = tree / m.file
            path.write_text(path.read_text().replace(m.old, m.new))
            start = time.perf_counter()
            killed = not run_suite(tree)
            shutil.rmtree(tree)
            verdict = ("killed" if killed else
                       "survived (equivalent)" if m.equivalent else "SURVIVED")
            print(f"{m.name}: {verdict} in {time.perf_counter() - start:.1f} s"
                  f" -- {m.reason}")
            if not killed and not m.equivalent:
                survivors.append(m.name)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
