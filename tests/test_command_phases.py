"""Smoke test of `tests/command_phases.py`, the per-phase CLI timer."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tests" / "command_phases.py"
PHASES = ["argv", "read", "parse", "build", "analysis", "values", "render/emit", "all"]


@pytest.mark.parametrize("workload", ["block-codes", "long-horizon", "convolutional"])
def test_one_line_per_phase(workload):
    done = subprocess.run(
        [sys.executable, str(TOOL), "--workload", workload, "--limit", "4", "--repeat", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    head, columns, *rows = done.stdout.splitlines()
    assert head.startswith(f"{workload} seed 7: 4 ops (")
    assert head.endswith("), median of 1 passes, CPU seconds per pass")
    assert columns.split() == ["phase", "seconds", "share"]
    seconds, shares = {}, {}
    for row, phase in zip(rows, PHASES, strict=True):
        name, spent, share = row.split()
        assert name == phase and share.endswith("%")
        seconds[name], shares[name] = float(spent), float(share[:-1])
        assert seconds[name] >= 0
    assert shares["all"] == 100.0
    assert abs(sum(seconds[p] for p in PHASES[:-1]) - seconds["all"]) < 1e-5
    assert seconds["parse"] > 0 and seconds["analysis"] > 0
    # Only a block duality report builds its values apart from its
    # handler, and only long-horizon runs one (``bench/workloads.py``).
    assert (seconds["values"] > 0) == (workload == "long-horizon")
