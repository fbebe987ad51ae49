"""Smoke test of the benchmark: every workload runs one short round and its
outputs pass the oracle checks, so a renamed or deleted function that
``splitbench/`` calls fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sample-defect", "certify", "long-words", "cocycle-qrep"])
def test_benchmark_workload_runs_and_checks_out(workload):
    command = [
        sys.executable, "splitbench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "0.01", "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
