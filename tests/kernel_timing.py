"""Time the Howell kernels on the inputs one benchmark pool gives them.

    PYTHONPATH=src python tests/kernel_timing.py --workload W [--seed 7]
        [--limit K] [--repeat 5]

The pool of workload W and the seed (the specs a 36 s run of
``bench/run.py`` generates, or the first K) is run through
``groupcodes.cli.main`` under every command ``tests/report_digest.py``
runs on it, with the Howell cache cleared first.  Every input that reaches
the kernel (every cache miss of ``linalg._howell_cached``) is recorded.
Each kernel is then timed on the recorded inputs it takes, bucketed by
matrix width:

* ``reference``: ``_howell_single`` on every input;
* ``reference-2^k``: ``_howell_single`` on the inputs the packed kernel
  takes (every modulus a power of 2 up to 8);
* ``packed``: ``_howell_packed`` on those inputs;
* ``dispatch``: ``_howell_kernel``, which picks one of the two, on every
  input.

A line gives the kernel, the width bucket, the input count, the number of
outputs that differ from ``_howell_single``'s and the best of ``--repeat``
timed passes, in seconds of CPU time (a shared machine's other load then
shows less than in wall time).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import report_digest  # noqa: E402  (the pools, the commands, one report)

from groupcodes import linalg  # noqa: E402

# (label, least width, largest width) of each bucket, then of all inputs.
BUCKETS = (
    ("0-4", 0, 4),
    ("5-8", 5, 8),
    ("9-16", 9, 16),
    ("17-32", 17, 32),
    ("33-64", 33, 64),
    ("65+", 65, math.inf),
)
EVERY = ("all", 0, math.inf)


def recorded_inputs(workload: str, seed: int, limit: int | None) -> tuple[list, int]:
    """Every (rows, moduli) that reached the Howell kernel while the pool
    ran through the CLI, and the number of specs run."""
    inputs = []
    kernel = linalg._howell_kernel

    def recording(rows, moduli):
        inputs.append((rows, moduli))
        return kernel(rows, moduli)

    specs = report_digest.pool(workload, seed, limit)
    linalg._howell_cached.cache_clear()
    linalg._howell_kernel = recording
    try:
        with tempfile.TemporaryDirectory() as work:
            for spec in specs:
                path = os.path.join(work, spec.name)
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(spec.text)
                for command in report_digest.COMMANDS[workload]:
                    report_digest.report(command, path)
    finally:
        linalg._howell_kernel = kernel
    return inputs, len(specs)


def best_time(kernel, inputs: list, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.process_time()
        for args in inputs:
            kernel(*args)
        best = min(best, time.process_time() - start)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(report_digest.COMMANDS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be at least 1")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    inputs, specs = recorded_inputs(args.workload, args.seed, args.limit)
    expected = [linalg._howell_single(rows, moduli) for rows, moduli in inputs]
    packable = [
        i for i, (_, moduli) in enumerate(inputs) if linalg._PACKED_MODULI.issuperset(moduli)
    ]
    layouts = {i: linalg._packed_layout(inputs[i][1]) for i in packable}
    every = range(len(inputs))
    print(
        f"{args.workload} seed {args.seed}: {len(inputs)} Howell inputs from "
        f"{specs} specs, {len(packable)} on the packed path"
    )
    print(f"{'kernel':<14}{'width':>7}{'inputs':>8}{'mismatches':>12}{'seconds':>10}")
    # (name, kernel, inputs it takes, whether it takes the layout)
    kernels = (
        ("reference", linalg._howell_single, every, False),
        ("reference-2^k", linalg._howell_single, packable, False),
        ("packed", linalg._howell_packed, packable, True),
        ("dispatch", linalg._howell_kernel, every, False),
    )
    for name, kernel, chosen, on_layout in kernels:
        for label, low, high in BUCKETS + (EVERY,):
            picked = [i for i in chosen if low <= len(inputs[i][1]) <= high]
            if not picked and label != "all":
                continue
            calls = [(inputs[i][0], layouts[i] if on_layout else inputs[i][1]) for i in picked]
            mismatches = sum(kernel(*call) != expected[i] for call, i in zip(calls, picked))
            seconds = best_time(kernel, calls, args.repeat)
            print(f"{name:<14}{label:>7}{len(picked):>8}{mismatches:>12}{seconds:>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
