"""Smoke test of `tests/kernel_timing.py`, the Howell kernel timer."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tests" / "kernel_timing.py"
KERNELS = ("reference", "reference-2^k", "packed", "dispatch")


@pytest.mark.parametrize("workload", ["block-codes", "long-horizon", "convolutional"])
def test_two_specs_no_mismatch(workload):
    done = subprocess.run(
        [sys.executable, str(TOOL), "--workload", workload, "--limit", "2", "--repeat", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    head, columns, *rows = done.stdout.splitlines()
    assert head.startswith(f"{workload} seed 7: ")
    assert columns.split() == ["kernel", "width", "inputs", "mismatches", "seconds"]
    totals = {}
    for row in rows:
        kernel, width, inputs, mismatches, seconds = row.split()
        assert mismatches == "0"
        float(seconds)
        if width == "all":
            totals[kernel] = int(inputs)
    assert set(totals) == set(KERNELS)
    assert totals["reference"] == totals["dispatch"] > 0
    assert totals["packed"] == totals["reference-2^k"] <= totals["reference"]
