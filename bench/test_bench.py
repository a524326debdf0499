"""Smoke test of the benchmark: every workload, traced and untraced, at
tiny sizes. run.py --smoke itself fails unless the metrics it prints are
exactly those BENCHMARK.json names.

    python3 -m pytest bench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
