"""The README's library tour and CLI lines run as shown."""

import re
import shlex
from pathlib import Path

from brauer import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_values():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)[1]
    namespace = {}
    exec(block, namespace)
    # each bare expression line carries its value in a trailing comment
    shown = {}
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        if sep and code.strip() and "=" not in code:
            shown[code.strip()] = comment.strip()
    assert shown == {
        "tame_residue(alpha, P)": "1 (mod 2)",
        "ramification_divisor(alpha)": "{(t): 1, (inf): 1}",
        "reciprocity_sum(alpha).value": "0, always (Faddeev reciprocity)",
    }
    for expr, comment in shown.items():
        value = repr(eval(expr, namespace))
        assert comment == value or comment.startswith(value + ", ")


def test_cli_lines_exit_zero(capsys):
    lines = [line for block in re.findall(r"```sh\n(.*?)```",
                                           README.read_text(), re.S)
             for line in block.splitlines() if line.startswith("brauer ")]
    assert len(lines) == 9
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert cli.main(argv[1:]) == 0, line
        capsys.readouterr()
