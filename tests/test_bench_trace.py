"""The traced benchmark run ends with a strict-JSON result line.

``bench/run.py`` promises that the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 1`` that line holds the per-layer metrics, read from the traced
functions and the Howell cache's ``cache_info()``, so a change beneath
them must still end the run with a valid result.  NaN and Infinity are
not JSON: the line is parsed with them refused, and every metric value
must be finite.  The metric names are exactly BENCHMARK.json's
per-layer list: every traced name still resolves in the program, and the
Howell cache still reports ``cache_info()``.
"""

import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "bench" / "run.py"
TRACER = ROOT / "bench" / "tracer.py"
PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves():
    # A target the program no longer has drops its three metrics from the
    # traced result, and a Howell cache without cache_info() drops its
    # hit ratio.
    for module_name, name in tracer_targets():
        module = importlib.import_module(f"groupcodes.{module_name}")
        if name.endswith(".init"):
            cls = getattr(module, name[: -len(".init")])
            assert callable(getattr(cls, "__post_init__", None)), (module_name, name)
        else:
            assert callable(getattr(module, name, None)), (module_name, name)
    linalg = importlib.import_module("groupcodes.linalg")
    assert callable(linalg._howell_cached.cache_info)


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
    assert set(result["metrics"]) == PER_LAYER
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
