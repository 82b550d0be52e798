"""Benchmark of brauer-residues: three closed-loop workloads.

    python3 bench/run.py --workload symbols --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload conics --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --smoke                 # every workload, tiny sizes

Workloads: `symbols`, `conics`, `cohomology` (see workloads.py and
meta.json).  Each run is driven by one client in one fresh single-threaded
worker process (worker.py), which imports brauer from this checkout's
src/ and checks every op's answer against the oracles in oracles.py.

--trace 0 prints the end-to-end metrics: setup_s, throughput_ops_s,
latency_p50_ms, latency_p90_ms and peak_rss_mb, plus fail_ratio.  Times are
divided by a speed factor: the time of a pure-Python reference loop run
between ops, relative to the time recorded in meta.json; each op is scaled
by the loops on either side of it.  Raw wall values are printed beside
the normalised ones.

--trace 1 runs a fixed number of rounds twice, untraced and traced from
outside (tracer.py), and prints the per-layer metrics and the tracing
overhead.  Counts repeat exactly for a given seed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 only when every op's answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
META = json.loads((BENCH / "meta.json").read_text())
REF_S = META["reference_loop_s"]
WORKLOADS = tuple(META["workloads"])
SETUP_PROBES = 11
# rounds of a traced run, a few seconds of untraced work each
TRACE_ROUNDS = {"symbols": 15, "conics": 6, "cohomology": 1}
DEADLINE_S = 170


class WorkerError(RuntimeError):
    pass


def spawn(deadline, *args):
    """Run worker.py in a fresh process; return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *map(str, args)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited {proc.returncode}:\n"
                          f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def normalised_latencies(run):
    """Each op's time divided by the speed factor of the reference loops
    that bracket it."""
    refs = run["refs"]
    return [lat * 2 * REF_S / (refs[i] + refs[i + 1])
            for i, lat in enumerate(run["latencies"])]


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(workload, seed, seconds, skew, deadline):
    # the first probe warms the file cache and is not counted; the median
    # set-up is scaled by the median of all probes' reference loops, since
    # one probe's loops say little about the speed of its imports
    setups, probe_refs = [], []
    for i in range(SETUP_PROBES + 1):
        probe = spawn(deadline, "--workload", workload, "--mode", "setup")
        if i:
            setups.append(probe["setup_s"])
            probe_refs += probe["refs"]
    setup_raw = statistics.median(setups)
    run = spawn(deadline, "--workload", workload, "--seed", seed, "--mode",
                "timed", "--seconds", seconds, "--skew", skew)
    raw = run["latencies"]
    norm = normalised_latencies(run)
    ops = len(raw)
    metrics = {
        "setup_s": (setup_raw * REF_S / statistics.median(probe_refs), "s",
                    setup_raw),
        "throughput_ops_s": (ops / sum(norm), "1/s", ops / sum(raw)),
        "latency_p50_ms": (statistics.median(norm) * 1e3, "ms",
                           statistics.median(raw) * 1e3),
        "latency_p90_ms": (p90(norm) * 1e3, "ms", p90(raw) * 1e3),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", run["peak_rss_mb"]),
    }
    factor = statistics.median(run["refs"]) / REF_S
    lines = [f"{workload} seed={seed}: {ops} ops in {run['rounds']} rounds, "
             f"median speed factor {factor:.3f}, latency samples {ops}"]
    for name, (value, unit, rawv) in metrics.items():
        lines.append(f"  {name:18s} {value:12.4f} {unit:4s} (raw {rawv:.4f})")
    failed = len(run["failures"])
    lines.append(f"  {'fail_ratio':18s} {failed / ops:12.4f}      "
                 f"({failed} of {ops} ops)")
    return ({k: v[:2] for k, v in metrics.items()}, ops, run["failures"],
            lines)


def traced(workload, seed, skew, deadline):
    common = ("--workload", workload, "--seed", seed, "--mode", "fixed",
              "--rounds", TRACE_ROUNDS[workload], "--skew", skew)
    plain = spawn(deadline, *common)
    spans = BENCH / "out" / f"spans-{workload}-{seed}.json"
    run = spawn(deadline, *common, "--trace", "--spans-out", spans)
    scale = REF_S / statistics.median(run["refs"])
    metrics = {name: (value, "count" if isinstance(value, int) else "ratio")
               for name, value in run["trace"]["metrics"].items()}
    for name, ns in run["trace"]["self_ns"].items():
        metrics[name] = (ns / 1e6 * scale, "ms")

    def throughput(r):
        return len(r["latencies"]) / sum(normalised_latencies(r))

    metrics["trace.overhead_ratio"] = (throughput(plain) / throughput(run),
                                       "ratio")
    ops = len(run["latencies"]) + len(plain["latencies"])
    lines = [f"{workload} seed={seed} traced: {len(run['latencies'])} ops, "
             f"{run['trace']['spans']} spans written to "
             f"{spans.relative_to(ROOT)}",
             f"  untraced {throughput(plain):.3f} ops/s, traced "
             f"{throughput(run):.3f} ops/s (normalised)"]
    lines += [f"  {name:45s} {value:14.4f} {unit}"
              for name, (value, unit) in sorted(metrics.items())]
    return metrics, ops, plain["failures"] + run["failures"], lines


def smoke(skew, deadline):
    """Every workload at tiny sizes, untraced and traced, oracles on."""
    failures, attempted = [], 0
    for workload in WORKLOADS:
        for trace in ((), ("--trace",)):
            run = spawn(deadline, "--workload", workload, "--seed", 0,
                        "--mode", "fixed", "--small", "--skew", skew, *trace)
            attempted += len(run["latencies"])
            failures += run["failures"]
            print(f"smoke {workload}{' traced' if trace else ''}: "
                  f"{len(run['latencies'])} ops, {len(run['failures'])} "
                  f"failed")
    return attempted, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny sizes")
    ap.add_argument("--wrong-oracle", action="store_true",
                    help="skew every expected value by one (self-test)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "brauer" / "__init__.py").is_file():
        print(f"no brauer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    deadline = time.monotonic() + DEADLINE_S
    skew = int(args.wrong_oracle)
    try:
        if args.smoke:
            attempted, failures = smoke(skew, deadline)
            metrics, lines = {}, []
        elif args.trace:
            metrics, attempted, failures, lines = traced(
                args.workload, args.seed, skew, deadline)
        else:
            metrics, attempted, failures, lines = end_to_end(
                args.workload, args.seed, args.seconds, skew, deadline)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
