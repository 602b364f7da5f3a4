"""Smoke test of `tests/kernel_timing.py`, the L0 kernel timer."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tests" / "kernel_timing.py"
KERNELS = (
    "reference", "reference-2^k", "packed", "dispatch", "prefix-per-end", "prefix-sweep",
    "order-sweep",
    "annihilator-per-end", "annihilator-table", "suffix-codes", "suffix-records",
    "matched-own-table", "matched-shared-table", "duality-windows-cut", "duality-windows-walk",
    "smith", "counted", "pair-loop", "pair-map", "order-graph", "order-counted",
    "peel-code", "peel-reversed", "conv-windows-reference", "conv-windows-engine",
)


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
    assert totals["smith"] == totals["counted"]
    assert totals["pair-loop"] == totals["pair-map"] > 0
    assert totals["order-graph"] == totals["order-counted"]
    # Every workload's reports read windows of block codes off filled
    # prefix tables, or count strong-index windows on tables with no
    # owner; every table's unfinished entries have the per-end Howell
    # forms as their Howell forms, and every window order read through
    # ``_PrefixTable.order`` is the per-end forms'.
    assert totals["prefix-per-end"] == totals["prefix-sweep"] > 0
    assert totals["order-sweep"] == totals["prefix-sweep"]
    # Block reports read invariant factors, order profiles and the
    # duality report's annihilator windows; convolutional ones do none.
    assert totals["annihilator-per-end"] == totals["annihilator-table"]
    assert (totals["counted"] > 0) == (workload != "convolutional")
    assert (totals["order-counted"] > 0) == (workload != "convolutional")
    assert (totals["annihilator-table"] > 0) == (workload != "convolutional")
    # Block reports read projections proj_[a,b) C with a > 0 (duality and
    # observe reports); a convolutional window reads only a = 0, the
    # code's own record.  Each record of the trimming sweep, after one
    # Howell form of its rows cut to [a, N), is the per-start form's.
    assert totals["suffix-codes"] == totals["suffix-records"]
    assert (totals["suffix-records"] > 0) == (workload != "convolutional")
    # Duality reports run on block codes only: both matched-side routes
    # rebuild each one, and their duals agree.
    assert totals["matched-own-table"] == totals["matched-shared-table"]
    assert (totals["matched-shared-table"] > 0) == (workload != "convolutional")
    # Both window routes run every recorded report, and every row reads
    # 0 mismatches: the walk gives the cut route's window verdicts and
    # chain verdict on each.
    assert totals["duality-windows-cut"] == totals["duality-windows-walk"]
    assert totals["duality-windows-walk"] == totals["matched-shared-table"]
    # Block reports decompose (``decompose`` and ``check --property
    # subdirect``); a convolutional ``decompose`` is an exit-2 error.
    assert totals["peel-code"] == totals["peel-reversed"]
    assert (totals["peel-reversed"] > 0) == (workload != "convolutional")
    # Only convolutional reports make convolutional codes; each is read by
    # the window engine and by the route before it.
    assert totals["conv-windows-reference"] == totals["conv-windows-engine"]
    assert (totals["conv-windows-engine"] > 0) == (workload == "convolutional")
    assert head.endswith(
        f"{totals['smith']} quotient inputs, {totals['pair-map']} pairing inputs, "
        f"{totals['order-counted']} order split inputs, "
        f"{totals['prefix-sweep']} prefix tables, "
        f"{totals['annihilator-table']} annihilator tables, "
        f"{totals['suffix-records']} suffix tables, "
        f"{totals['matched-shared-table']} duality reports, "
        f"{totals['peel-reversed']} decompositions, "
        f"{totals['conv-windows-engine']} convolutional codes"
    )
