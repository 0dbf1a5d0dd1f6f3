"""Smoke test of the benchmark harness: one small cycle of every workload.

Guards the harness against changes elsewhere, for example a ``jsonio`` byte
format that its own payload parser no longer reads, or a library change that
the tracer's wrappers and span labels no longer fit.  No timing is asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("eval-large", "suite-sweep", "measures-mix", "cli-files")


def run_cycle(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--scale", "small", "--cycles", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_small_cycle_passes_its_oracles(workload):
    result = run_cycle(workload, 0)
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_traced_cycles_report_every_per_layer_metric():
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    reported = set()
    for workload in WORKLOADS:
        result = run_cycle(workload, 1)
        assert result["correct"] and result["failed"] == 0, workload
        reported |= set(result["metrics"])
    assert not declared - reported, sorted(declared - reported)
