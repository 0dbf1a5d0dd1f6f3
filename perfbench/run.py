"""Benchmark entry point: run one workload of the loewner benchmark.

    python3 perfbench/run.py --workload eval-large --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory; it exits with code 2 when that source is missing.  Prints
human-readable tables, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0`` and the per-layer metrics with ``--trace 1``.  Working files
go to ``.bench_work/`` (removed at exit) and the span file of a traced run to
``.bench_trace/<workload>.tsv``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

WORKLOAD_NAMES = ("eval-large", "suite-sweep", "measures-mix", "cli-files")

# one BLAS thread: a closed loop with one caller, steadier on a shared 2-core machine
BLAS_THREADS = "1"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="input sizes; 'small' is the self-test's smallest size")
    parser.add_argument("--cycles", type=int, default=0,
                        help="run exactly this many cycles instead of --seconds")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.cycles < 0:
        parser.error("--seed and --cycles must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "loewner", "__init__.py")):
        print(f"error: no loewner source under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.dont_write_bytecode = True
    sys.path.insert(0, src)
    import loewner
    if not os.path.abspath(loewner.__file__).startswith(src + os.sep):
        print(f"error: imported loewner from {loewner.__file__}, not {src}", file=sys.stderr)
        return 2
    import harness

    workdir = os.path.join(root, ".bench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        run = harness.Run(args.workload, args.seed, args.scale, workdir)
        run.execute(args.seconds, bool(args.trace), args.cycles)
        result = harness.report(run, args, root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
