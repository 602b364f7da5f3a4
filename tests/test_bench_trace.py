"""The traced benchmark run ends with a strict-JSON result line.

``bench/run.py`` promises that the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 1`` that line holds the per-layer metrics, read from the traced
functions and the Howell cache's ``cache_info()``, so a change beneath
them must still end the run with a valid result.  NaN and Infinity are
not JSON: the line is parsed with them refused, and every metric value
must be finite.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "bench" / "run.py"


def refuse(constant):
    raise ValueError(f"non-finite constant {constant} in the result line")


@pytest.mark.parametrize("workload", ["block-codes", "long-horizon", "convolutional"])
def test_traced_run_ends_with_result(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=refuse)
    assert {"correct", "attempted", "failed", "metrics"} <= set(result)
    assert "linalg.howell_form.calls" in result["metrics"]
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
