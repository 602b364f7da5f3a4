"""Smoke test of `tests/howell_requests.py`, the Howell request counter."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tests" / "howell_requests.py"
FIELDS = ("requests", "kernel runs", "repeats")


def counts(row: str) -> tuple[str, tuple[int, ...]]:
    label, *numbers = row.rsplit(maxsplit=len(FIELDS))
    return label, tuple(map(int, numbers))


@pytest.mark.parametrize("workload", ["block-codes", "long-horizon", "convolutional"])
def test_four_specs_add_up(workload):
    done = subprocess.run(
        [sys.executable, str(TOOL), "--workload", workload, "--limit", "4", "--per-op"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    head, columns, *rows = done.stdout.splitlines()
    assert head.startswith(f"{workload} seed 7: 4 ops (") and head.endswith("), one pass")
    assert columns.split(maxsplit=2)[:2] == ["call", "site"]
    assert columns.endswith("requests  kernel runs      repeats")
    total = next(i for i, row in enumerate(rows) if row.startswith("all "))
    sites = [counts(row) for row in rows[:total]]
    ops = [counts(row) for row in rows[total + 1 :]]
    _, every = counts(rows[total])
    assert sites and len({label for label, _ in sites}) == len(sites)
    assert [label.split()[:2] for label, _ in ops] == [["op", str(i)] for i in range(4)]
    for part in (sites, ops):
        assert tuple(map(sum, zip(*(c for _, c in part)))) == every
    # The suffix records are one trimming sweep per code, and each primary
    # part of a decomposition is one Howell state that every peel step
    # changes in place: no Howell form is requested while a suffix record
    # is read, a part is entered or a peel step runs.
    for site in ("codes.BlockCode._suffix", "structure._primary", "structure._peel"):
        assert not any(label.startswith(site) for label, _ in sites), site
    requests, runs, repeats = every
    # The cache starts empty, so each distinct input runs the kernel at
    # least once; a repeat may run it again only after an eviction.
    assert 0 < requests - repeats <= runs <= requests
