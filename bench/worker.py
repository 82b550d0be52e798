"""One benchmark worker: a fresh, single-threaded process with one client.

    python3 bench/worker.py --workload symbols --seed 1 --mode timed \
        --seconds 20

Modes:
  setup   time `import brauer` plus the workload's base fields, with
          reference loops before and after.
  timed   closed loop over whole rounds until --seconds have passed and
          at least MIN_OPS ops and --rounds rounds have run.
  fixed   exactly --rounds rounds; with --trace the library is wrapped
          from outside and per-layer counts and self times are reported.

The last line of stdout is one JSON object with the raw measurements;
`run.py` turns them into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# a timed run has at least this many ops, so p90 has ten samples beyond it
MIN_OPS = 100
# set-up builds these fields; ops reuse them through the library's cache
BASE_FIELDS = {"symbols": (5, 13), "conics": (5, 13),
               "cohomology": (5, 7, 13)}


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop (no brauer code).

    Tuple building, modular int arithmetic and dict traffic, the same kinds
    of work the library does, so its time tracks interpreter speed here.
    """
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(2000):
        key = (i % 61, (i * 7) % 53)
        acc = (acc * 31 + key[0] * key[1] + table.get(key, 0)) % 1000003
        table[key] = acc & 255
    return time.perf_counter() - start


def import_program(workload: str):
    """Import brauer from this checkout's src/ and build the base fields."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import brauer
    if Path(brauer.__file__).resolve().parent != src / "brauer":
        raise ImportError(f"brauer imported from {brauer.__file__}, "
                          f"not from {src}")
    from brauer import cli  # noqa: F401  (the CLI is part of set-up)
    for q in BASE_FIELDS[workload]:
        brauer.FiniteField(q)


def run_ops(gen, *, seconds: float, rounds: int, min_ops: int, tracer=None):
    """Run whole rounds until `rounds` are done and, when `seconds` > 0,
    until `seconds` have passed and `min_ops` ops have run.

    The reference loop runs before the first op and after every op, so
    refs[i] and refs[i + 1] bracket op i.  Op times exclude it.
    """
    start = time.perf_counter()
    latencies, kinds, failures, refs = [], [], [], [reference_loop()]
    r = 0
    while True:
        for op in gen.round(r):
            run = op.run if tracer is None else tracer.wrap(f"op.{op.kind}",
                                                            op.run)
            t0 = time.perf_counter()
            try:
                result = run()
            except Exception as exc:  # an op that raises is a failed op
                result, err = None, f"raised {type(exc).__name__}: {exc}"
            else:
                err = None
            dt = time.perf_counter() - t0
            refs.append(reference_loop())
            if err is None:
                try:
                    err = op.check(result)
                except Exception as exc:  # malformed output fails the op
                    err = f"check raised {type(exc).__name__}: {exc}"
            latencies.append(dt)
            kinds.append(op.kind)
            if err:
                failures.append(f"{op.kind}: {err}")
        r += 1
        if r >= rounds and (time.perf_counter() - start >= seconds
                            and len(latencies) >= min_ops):
            break
    return {"latencies": latencies, "kinds": kinds, "failures": failures,
            "refs": refs, "rounds": r}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "timed", "fixed"),
                    required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--skew", type=int, default=0)
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    if args.mode == "setup":
        # bracket the one-off set-up with reference loops on both sides
        refs = [reference_loop() for _ in range(8)]
        t0 = time.perf_counter()
        import_program(args.workload)
        setup_s = time.perf_counter() - t0
        refs += [reference_loop() for _ in range(8)]
        print(json.dumps({"setup_s": setup_s, "refs": refs}))
        return 0

    import_program(args.workload)
    out = {}

    import workloads
    gen = workloads.WORKLOADS[args.workload](args.seed, small=args.small,
                                             skew=args.skew)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    timed = args.mode == "timed"
    out.update(run_ops(gen, seconds=args.seconds if timed else 0,
                       rounds=args.rounds, min_ops=MIN_OPS if timed else 0,
                       tracer=tracer))
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary()
        if args.spans_out:
            tracer.write_spans(Path(args.spans_out))
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH))
    sys.exit(main())
