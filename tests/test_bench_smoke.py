"""Smoke test of the benchmark harness: one small cycle of every workload.

Guards the harness against changes elsewhere, for example a ``jsonio`` byte
format that its own payload parser no longer reads.  No timing is asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("eval-large", "suite-sweep", "measures-mix", "cli-files")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_small_cycle_passes_its_oracles(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--scale", "small", "--cycles", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert result["attempted"] > 0
