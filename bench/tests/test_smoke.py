"""The benchmark at tiny sizes: every workload with its oracles, a wrong
oracle input, and traced counts that repeat for a seed.

    python3 -m pytest bench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]


def _last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run(*args):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=120)


def test_smoke_runs_every_workload_with_oracles():
    proc = _run("--smoke")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    for workload in ("symbols", "conics", "cohomology"):
        assert f"smoke {workload}:" in proc.stdout


def test_wrong_oracle_input_exits_nonzero():
    proc = _run("--smoke", "--wrong-oracle")
    assert proc.returncode != 0
    result = _last_json(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_traced_counts_repeat_for_a_seed():
    env = dict(os.environ, PYTHONHASHSEED="0")
    for workload in ("symbols", "conics", "cohomology"):
        counts = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), "--workload",
                 workload, "--seed", "3", "--mode", "fixed", "--small",
                 "--trace"], capture_output=True, text=True, timeout=120,
                env=env)
            assert proc.returncode == 0, proc.stderr
            counts.append(_last_json(proc)["trace"]["metrics"])
        assert counts[0] == counts[1]
        assert counts[0]["cli.main.calls"] > 0
