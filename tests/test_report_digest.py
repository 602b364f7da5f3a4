"""Smoke test of `tests/report_digest.py`, the report identity tool."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tests" / "report_digest.py"
COMMANDS = {"block-codes": 13, "long-horizon": 11, "convolutional": 11}


def run_tool(*args):
    done = subprocess.run(
        [sys.executable, str(TOOL), *args], cwd=ROOT, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_two_specs_per_workload():
    lines = run_tool("--limit", "2", "--seeds", "7")
    rows = [line.split("\t") for line in lines]
    assert all(len(row) == 4 for row in rows)
    per_workload = {}
    for workload, command, digest, count in rows:
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
        assert count == "2 specs, seeds 7"
        per_workload.setdefault(workload, []).append(command)
    assert {w: len(c) for w, c in per_workload.items()} == COMMANDS
    assert all(len(set(c)) == len(c) for c in per_workload.values())
    # The same reports hash the same, whichever workloads are run with them.
    again = run_tool("--limit", "2", "--seeds", "7", "--workload", "convolutional")
    assert again == [line for line in lines if line.startswith("convolutional\t")]


def test_report_identity_is_pinned():
    # Every report of the first 16 specs of each seed-7 pool, byte for
    # byte.  A change that alters reports on purpose updates this digest
    # and quotes the old and the new one in CHANGES.md.
    done = subprocess.run(
        [sys.executable, str(TOOL), "--seeds", "7", "--limit", "16"],
        cwd=ROOT, capture_output=True,
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == (
        "ec7f4fbbd9eaf7d71642d418cb3674e9e5c3d1356a33b64fbc3aa263f264f837"
    )


def test_refuses_an_empty_pool():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--limit", "0"], cwd=ROOT, capture_output=True
    )
    assert done.returncode == 2
