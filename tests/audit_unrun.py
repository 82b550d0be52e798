"""Unrun-line audit of the library, outside pytest's collection.

Records, with sys.settrace, which lines of src/brauer/ run while these
run in one process:

- the README's CLI lines, as written and with --format json;
- `selftest --rounds 5` at BRAUER_SEED 0 and 1;
- three fixed rounds of each benchmark workload at seed 5, each op
  checked against its oracle (bench/workloads.py is imported, not
  changed).

It then prints, for each module, its executable lines (those some
compiled instruction maps to) that never ran, as ranges, and the totals.
It is a measurement, not a gate: the exit status is 1 only when a CLI
line exits nonzero or a workload op fails, and 2 when the package was
not imported from this checkout's src/.

    python tests/audit_unrun.py
"""

import contextlib
import dis
import io
import os
import re
import shlex
import sys
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "brauer"
README = ROOT / "README.md"
SEEDS = (0, 1)
WORKLOAD_SEED, ROUNDS = 5, 3


def executable_lines(path: Path) -> set:
    """The lines of path that some instruction of its compiled code maps
    to, in the module and in every function and class body."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def trace_into(ran: dict):
    """A global trace function that adds, for each module of SRC, the lines
    run in it to ran[file name]; a call adds the line its code starts
    at, where the def's own instruction sits."""
    names = {}

    def local(frame, event, arg):
        if event == "line":
            ran[names[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        file = frame.f_code.co_filename
        if file not in names:
            path = Path(file).resolve()
            names[file] = path.name if path.parent == SRC else None
        if names[file] is None:
            return None
        ran[names[file]].add(frame.f_code.co_firstlineno)
        return local

    return on_call


def cli_lines():
    """The README's CLI lines as argv lists, each also with --format json."""
    text = README.read_text()
    lines = [shlex.split(line, comments=True)[1:]
             for block in re.findall(r"```sh\n(.*?)```", text, re.S)
             for line in block.splitlines() if line.startswith("brauer ")]
    return lines + [argv + ["--format", "json"] for argv in lines]


def exercise() -> list:
    """Run the CLI lines, the selftests and the workload rounds; return
    what failed."""
    from brauer import cli
    import workloads

    failures = []

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            failures.append(f"brauer {shlex.join(argv)} exited {code}")

    for argv in cli_lines():
        run(argv)
    for seed in SEEDS:
        os.environ["BRAUER_SEED"] = str(seed)
        run(["selftest", "--rounds", "5"])
    for name, workload in workloads.WORKLOADS.items():
        gen = workload(WORKLOAD_SEED)
        for r in range(ROUNDS):
            for op in gen.round(r):
                err = op.check(op.run())
                if err:
                    failures.append(f"{name} {op.kind}: {err}")
    return failures


def ranges(lines):
    """Sorted line numbers written as runs a-b."""
    out, lines = [], sorted(lines)
    for i, line in enumerate(lines):
        if i and line == lines[i - 1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in out)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    sys.dont_write_bytecode = True  # no cache files under bench/
    ran = defaultdict(set)
    sys.settrace(trace_into(ran))
    try:  # the package is imported under the trace, so module lines count
        failures = exercise()
    finally:
        sys.settrace(None)
    import brauer
    if Path(brauer.__file__).resolve().parent != SRC:
        print(f"brauer was imported from {brauer.__file__}, not {SRC}")
        return 2
    total = unrun = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        missed = lines - ran[path.name]
        total, unrun = total + len(lines), unrun + len(missed)
        print(f"{path.name}: {len(missed)} of {len(lines)} unrun"
              + (f": {ranges(missed)}" if missed else ""))
    print(f"total: {unrun} of {total} executable lines unrun")
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
