"""Certification benchmark of bundlecurv: seconds and accuracy per point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_full --seed 1 --seconds 25 \
        --trace 0

With ``--trace 0`` it times the workload's operations for ``--seconds``
(whole rounds, plus the rounds the margin is taken over) and prints the
end-to-end metrics; with ``--trace 1`` it wraps the library's public
functions at runtime, runs the same operations and a census of single
checks, and prints the per-layer metrics. The last line of standard
output is one JSON object; a readable summary goes to standard error and
a result file to ``perfbench/results/``. See perfbench/README.md.
"""

import time

_START = time.perf_counter()

import argparse              # noqa: E402  (the set-up clock runs first)
import contextlib            # noqa: E402
import json                  # noqa: E402
import os                    # noqa: E402
import statistics            # noqa: E402
import subprocess            # noqa: E402
import sys                   # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
# the names of workloads.WORKLOADS, known before numpy is imported
WORKLOAD_NAMES = ("verify_full", "oracle_shift", "first_order")
SETUP_REPEATS = 3            # this process plus two fresh interpreters


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the seconds it took")
    parser.add_argument("--stream", type=int, default=0,
                        help="input stream of this process (set-up repeats)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_library():
    """Import bundlecurv from this checkout's ``src``, and nowhere else."""
    if not os.path.isfile(os.path.join(SOURCE, "bundlecurv",
                                       "__init__.py")):
        sys.exit("perfbench: no bundlecurv sources under %s" % SOURCE)
    sys.path.insert(0, SOURCE)
    import bundlecurv
    where = os.path.dirname(os.path.abspath(bundlecurv.__file__))
    if where != os.path.join(SOURCE, "bundlecurv"):
        sys.exit("perfbench: imported bundlecurv from %s, not %s"
                 % (where, SOURCE))


def repeat_setup(args):
    """Set-up seconds of fresh interpreters running the same set-up."""
    seconds = []
    for stream in range(1, SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0",
               "--setup-only", "--stream", str(stream)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=150, check=True)
        seconds.append(json.loads(done.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return seconds


# ------------------------------------------------------------------ main

def main(argv=None):
    args = parse_args(argv)
    load_library()
    import metrics as bench
    import tracing
    import workloads as wl

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer)

    def root(points, kind="op"):
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.root(kind, points)

    workload = wl.WORKLOADS[args.workload](args.seed, args.stream)
    with root(0, "setup"):
        workload.build()
    warm = workload.warm_up()
    setup_seconds = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_seconds}))
        return 0

    ops, peak_kib = wl.run_rounds(workload, args.seconds, root)
    checked = list(warm)
    details = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "operations": len(ops),
               "op_point_s": [op.seconds and op.seconds / op.points
                              for op in ops]}
    if tracer is None:
        summary = bench.end_to_end(workload, ops, peak_kib,
                                   [setup_seconds] + repeat_setup(args))
        metrics, extra = summary if summary else ({}, {})
        details.update(extra)
    else:
        traced_point_s = statistics.median(
            op.seconds / op.points for op in ops if op.seconds is not None)
        checked += bench.census(workload, root)
        table = tracing.SpanTable(tracer)
        metrics, sources = bench.per_layer(table)
        details.update({"traced_point_s": traced_point_s,
                        "layer_sources": sources,
                        "census": bench.check_table(table)})

    failed = sum(op.failed for op in ops)
    correct = bool(metrics) and all(v.passed for v in checked)
    for op in ops:
        if op.failed:
            print("perfbench: failed operation in round %d: %s"
                  % (op.round_index, op.error
                     or "; ".join(op.verdict.failures())), file=sys.stderr)
    for verdict in checked:
        for problem in verdict.failures():
            print("perfbench: set-up or census check: %s" % problem,
                  file=sys.stderr)
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    for name, (value, unit) in metrics.items():
        print("%-52s %14.6g %s" % (name, value, unit), file=sys.stderr)
    print("operations attempted %d, failed %d, correct %s"
          % (len(ops), failed, correct), file=sys.stderr)
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-seed%d-trace%d" % (args.workload,
                                                        args.seed,
                                                        args.trace))
    with open(stem + ".json", "w") as out:
        json.dump({"result": result, "details": details}, out, indent=1)
    if tracer is not None:
        with open(stem + ".spans.json", "w") as out:
            json.dump(table.summary(), out, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
