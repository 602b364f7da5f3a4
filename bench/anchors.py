"""One-shot sweep of the ROADMAP baseline anchors, with per-layer timings.

    python3 bench/anchors.py

Not a benchmark workload: it runs once, is not gated and is not repeated.
It times, each in a fresh interpreter with a cold Howell cache:

* ``cyclic_product_decomposition`` and ``order_profile`` on a 4096-word
  code over Z/4 at N = 10;
* ``control_profile``, ``observe_profile`` and the control/observe duality
  report on Z/4 band codes (all shifts of the tap 1 2 3) at N = 8, 12, 16.

The codes behind the ROADMAP figures were not recorded, so these are fixed
stand-ins of the same shape.  Each anchor is then run once more with the
benchmark's tracer installed and its five largest self times are printed.
Results go to stdout and to ``.bench_out/anchors.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

BAND_TAP = (1, 2, 3)
ANCHORS = (
    ("cyclic_product_decomposition", "z4-n10-4096"),
    ("order_profile", "z4-n10-4096"),
) + tuple(
    (fn, f"band-n{n}")
    for fn in ("control_profile", "observe_profile", "check_control_observe_duality")
    for n in (8, 12, 16)
)


def build_code(label: str):
    from groupcodes.codes import SequenceSpace, code_from_generators
    from groupcodes.groups import FiniteAbelianGroup

    if label == "z4-n10-4096":
        n, rng = 10, random.Random(4096)
        rows = []
        for p in sorted(rng.sample(range(n), 6)):
            rows.append([0] * p + [1] + [rng.randrange(4) for _ in range(n - p - 1)])
    else:
        n = int(label.rsplit("n", 1)[1])
        k = len(BAND_TAP)
        rows = [[0] * s + list(BAND_TAP) + [0] * (n - k - s) for s in range(n - k + 1)]
    space = SequenceSpace(tuple(FiniteAbelianGroup((4,)) for _ in range(n)))
    code = code_from_generators(space, rows)
    if label == "z4-n10-4096" and code.cardinality != 4096:
        raise AssertionError("anchor code has the wrong size")
    return code


def run_one(fn_name: str, label: str, trace: bool) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH)
    import groupcodes

    code = build_code(label)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    fn = getattr(groupcodes, fn_name)
    start = perf_counter()
    fn(code)
    elapsed = perf_counter() - start
    out = {"function": fn_name, "code": label, "cardinality": code.cardinality,
           "seconds": elapsed}
    if tracer:
        layers = [
            {"name": name, "calls": calls, "total_s": total, "self_s": own}
            for name, (calls, total, own) in tracer.stats.items() if calls
        ]
        out["top_self"] = sorted(layers, key=lambda r: -r["self_s"])[:5]
    return out


def sweep() -> list[dict]:
    rows = []
    for fn_name, label in ANCHORS:
        row = None
        for trace in (False, True):
            args = [sys.executable, os.path.abspath(__file__), "--one", fn_name, label]
            proc = subprocess.run(args + (["--trace"] if trace else []), cwd=ROOT,
                                  capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout)
            if row is None:
                row = result
                print(f"{fn_name:32s} {label:12s} |C|={result['cardinality']:<8d} "
                      f"{result['seconds']:9.3f} s", flush=True)
            else:
                row["traced_seconds"] = result["seconds"]
                row["top_self"] = result["top_self"]
                for layer in result["top_self"]:
                    print(f"    {layer['name']:42s} calls {layer['calls']:8d}  "
                          f"total {layer['total_s']:8.3f} s  self {layer['self_s']:8.3f} s")
        rows.append(row)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--one", nargs=2, metavar=("FUNCTION", "CODE"), help=argparse.SUPPRESS)
    parser.add_argument("--trace", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(json.dumps(run_one(*args.one, args.trace)))
        return 0
    rows = sweep()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "anchors.json"), "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
