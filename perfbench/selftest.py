"""Self-test of the benchmark: every workload at its smallest size.

    python3 perfbench/selftest.py

For each workload it runs ``run.py --scale small --cycles 2`` twice untraced
and once traced, each in its own process, and asserts that

* the result line has exactly the end-to-end (untraced) or per-layer (traced)
  metrics named in BENCHMARK.json, each with its unit;
* every op passed its check (fail_frac is 0) and the run reports correct;
* the workload's named per-op metrics and fail_frac are printed with units;
* the same seed twice gives identical input digests and identical
  ``report_to_json`` bytes.

Finally it copies only BENCHMARK.json and the benchmark's files into an empty
directory and asserts that the benchmark exits non-zero there without printing
a result.  Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

NAMED = {
    "eval-large": ("eval.p50_ms", "eval_complex.p50_ms"),
    "suite-sweep": ("suite.trials_per_s",),
    "measures-mix": ("order.p50_ms", "mean.p50_ms"),
    "cli-files": ("cli_eval.p50_ms", "cli_realize.p50_ms"),
}


def run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def small_run(workload: str, trace: int) -> tuple:
    proc = run(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace), "--scale", "small", "--cycles", "2")
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3:
            try:
                printed[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    digests = next(json.loads(line[len("digests "):]) for line in lines
                   if line.startswith("digests "))
    return result, printed, digests


def check(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check([w["name"] for w in spec["workloads"]] == list(NAMED),
          "BENCHMARK.json workloads differ from the benchmark's")
    for workload in NAMED:
        first = None
        for trace in (0, 0, 1):
            result, printed, digests = small_run(workload, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload}: result keys {sorted(result)}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == expected[trace],
                  f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(units) ^ set(expected[trace]))}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace}: {result['failed']} of {result['attempted']} "
                  "ops failed")
            check(printed.get("fail_frac") == (0.0, "ratio"), f"{workload}: fail_frac not 0")
            for name in NAMED[workload]:
                check(name in printed and printed[name][0] > 0,
                      f"{workload}: named metric {name} not printed")
            if trace == 0:
                if first is None:
                    first = digests
                else:
                    check(digests == first,
                          f"{workload}: same seed gave different digests {first} {digests}")
        print(f"ok {workload}")

    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "eval-large", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
        check(proc.returncode != 0, "benchmark succeeded without the program's source")
        check('"metrics"' not in proc.stdout, "benchmark printed a result without the source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass
    print("ok bare checkout fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
