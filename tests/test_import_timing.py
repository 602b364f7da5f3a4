"""Smoke test of `tests/import_timing.py`, the cold-import timer."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tests" / "import_timing.py"
TARGETS = [
    "groupcodes", "groupcodes.codes", "groupcodes.convolutional", "groupcodes.cli", "bench-setup"
]


def test_one_line_per_target():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--repeat", "1"], cwd=ROOT, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    loaded, stdlib = {}, {}
    for line, target in zip(done.stdout.splitlines(), TARGETS, strict=True):
        name, milliseconds, ms, modules, word, names = line.split()
        assert (name, ms, word) == (target, "ms", "modules")
        assert float(milliseconds) >= 0
        loaded[name] = int(modules)
        stdlib[name] = set() if names == "-" else set(names.split(","))
        assert all(n.split(".")[0] in sys.stdlib_module_names for n in stdlib[name]), line
    # The package alone loads itself; the command line loads every module;
    # the benchmark's set-up loads the modules of codes and convolutional.
    assert loaded["groupcodes"] == 1
    assert 1 < loaded["groupcodes.codes"] < loaded["groupcodes.convolutional"]
    assert loaded["groupcodes.cli"] == len(list((ROOT / "src" / "groupcodes").glob("*.py")))
    assert loaded["bench-setup"] == loaded["groupcodes.convolutional"]
    # No target loads the class builders' or the JSON encoder's modules, and
    # the command line adds its parser.
    for name in TARGETS:
        assert not stdlib[name] & {"dataclasses", "inspect", "json"}, name
    assert "argparse" in stdlib["groupcodes.cli"]
    assert stdlib["bench-setup"] == stdlib["groupcodes.convolutional"] <= stdlib["groupcodes.cli"]
