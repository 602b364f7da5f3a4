"""Digests of every CLI report on the benchmark's spec pools.

    PYTHONPATH=src python tests/report_digest.py [--seeds 7 11] [--limit K]
        [--workload W ...]

For each workload (``bench/workloads.py``) and seed, the pool a 36 s run
of ``bench/run.py`` generates is fed to ``groupcodes.cli.main`` in-process,
under every command below.  One line per workload and command is printed:
the sha256 of the (exit code, stdout, stderr) of its reports over all the
given seeds, in pool order, and how many reports it covers.  Two checkouts
print the same lines exactly when every report is byte-identical, so a
change meant to keep the reports can be checked by diffing this output at
the parent and at the change.  ``--limit K`` keeps the first K specs of
each pool.  Only the standard library is used besides the program and the
benchmark's generator, which is read, not changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run as bench_run  # noqa: E402  (bench/run.py: the pool sizes)
import workloads  # noqa: E402  (bench/workloads.py: the generator)

from groupcodes import cli  # noqa: E402

RUN_SECONDS = 36
CHECKS = (
    ("check", "--property", "weak-controllable"),
    ("check", "--property", "observable"),
    ("check", "--property", "l-controllable", "--level", "1"),
)
BLOCK = (
    ("analyze",),
    ("analyze", "--format", "json"),
    ("dual",),
    ("dual", "--format", "json"),
    ("duality-check",),
    ("duality-check", "--format", "json"),
    *CHECKS,
    ("check", "--property", "rectangular"),
    ("check", "--property", "subdirect"),
)
# (command words before the spec path, then after it) per workload.
COMMANDS = {
    "block-codes": BLOCK + (("decompose",), ("decompose", "--format", "json")),
    "long-horizon": BLOCK,
    "convolutional": (
        ("analyze",),
        ("analyze", "--format", "json"),
        ("dual",),
        ("dual", "--format", "json"),
        ("duality-check",),
        ("duality-check", "--format", "json"),
        *CHECKS,
        # Block-only commands: each report is one exit-2 error line.
        ("decompose",),
        ("check", "--property", "rectangular"),
    ),
}


def pool(workload: str, seed: int, limit: int | None) -> list:
    """The specs of a RUN_SECONDS run of ``bench/run.py``, or its first
    ``limit``."""
    rounds = math.ceil(
        RUN_SECONDS * bench_run.POOL_RATE[workload] / bench_run.ROUND_SIZE[workload]
    )
    if limit is not None:
        rounds = min(rounds, limit)
    specs = workloads.generate(workload, seed, rounds)
    return specs if limit is None else specs[:limit]


def report(command: tuple, path: str) -> bytes:
    """(exit code, stdout, stderr) of one report, as bytes."""
    argv = [command[0], path, *command[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return repr((code, out.getvalue(), err.getvalue())).encode("utf-8")


def digests(workload_names, seeds, limit=None) -> list[tuple[str, str, str, int]]:
    """(workload, command, sha256, reports) per workload and command."""
    out = []
    with tempfile.TemporaryDirectory() as work:
        for workload in workload_names:
            hashes = {command: hashlib.sha256() for command in COMMANDS[workload]}
            count = 0
            for seed in seeds:
                for spec in pool(workload, seed, limit):
                    path = os.path.join(work, spec.name)
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write(spec.text)
                    for command, digest in hashes.items():
                        digest.update(report(command, path))
                    count += 1
            for command, digest in hashes.items():
                out.append((workload, " ".join(command), digest.hexdigest(), count))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument("--workload", nargs="+", choices=sorted(COMMANDS), default=list(COMMANDS))
    args = parser.parse_args(argv)
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be at least 1")
    seeds = " ".join(map(str, args.seeds))
    for workload, command, digest, count in digests(args.workload, args.seeds, args.limit):
        print(f"{workload}\t{command}\t{digest}\t{count} specs, seeds {seeds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
