"""Smoke test of `tests/import_timing.py`, the cold-import timer."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tests" / "import_timing.py"
TARGETS = ["groupcodes", "groupcodes.codes", "groupcodes.convolutional", "groupcodes.cli"]


def test_one_line_per_target():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--repeat", "1"], cwd=ROOT, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    loaded = {}
    for line, target in zip(done.stdout.splitlines(), TARGETS, strict=True):
        name, milliseconds, ms, modules, word = line.split()
        assert (name, ms, word) == (target, "ms", "modules")
        assert float(milliseconds) >= 0
        loaded[name] = int(modules)
    # The package alone loads itself; the command line loads every module.
    assert loaded["groupcodes"] == 1
    assert 1 < loaded["groupcodes.codes"] < loaded["groupcodes.convolutional"]
    assert loaded["groupcodes.cli"] == len(list((ROOT / "src" / "groupcodes").glob("*.py")))
