"""CPU time of each phase of the CLI's commands over one benchmark pool.

    PYTHONPATH=src python tests/command_phases.py --workload W [--seed 7]
        [--limit K] [--repeat 5]

The pool of workload W and the seed (the specs a 36 s run of
``bench/run.py`` generates, or the first K; ``report_digest.pool``) is
run as the benchmark's loop runs it: each spec is one op, every command
the workload names in ``bench/workloads.py`` on it, in text form, by the
steps of ``groupcodes.cli.main``.  Each step's CPU time is charged to one
phase:

* ``argv``: ``cli._arguments`` on the op's argv, the step ``main`` runs
  first (the parser and the plain-line namespaces are built once, before
  any pass, as in the benchmark's loop; a checkout without ``_arguments``
  is timed on ``cli.build_parser().parse_args``);
* ``read``: ``cli._load`` less its parse: opening, reading and decoding the
  spec;
* ``parse``: ``specfmt.parse_spec``;
* ``build``: ``CodeSpecDocument.to_block_code`` or ``to_convolutional``;
* ``analysis``: the rest of the command's handler;
* ``values``: the duality report's value objects
  (``observe._duality_report``);
* ``render/emit``: ``DualityReport.render`` and ``cli._emit``, which
  prints into a buffer.

A phase's time is the self time of its calls: a call's CPU time less that
of the timed calls inside it.  The reports of the other commands build
their values and text inside their handlers, which counts as analysis.
Each repeat is one pass over the whole pool with the Howell cache cleared
first, so the repeats take turns op by op and a drift in the machine's
speed falls on every phase alike.  One line per phase gives the median
over the repeats of its seconds per pass and its share of their sum, then
one line for the sum.  Only the standard library is used besides the
program and the benchmark's generator, which is read, not changed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import statistics
import sys
import tempfile
from collections import Counter
from time import process_time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import report_digest  # noqa: E402  (the pools; bench/workloads.py, read-only)

from groupcodes import cli, linalg, observe, specfmt  # noqa: E402

PHASES = ("argv", "read", "parse", "build", "analysis", "values", "render/emit")


class PhaseClock:
    """Self CPU time per phase of the wrapped calls."""

    def __init__(self) -> None:
        self.spent: Counter = Counter()
        self.inner: list[float] = []  # time of timed calls inside each open call

    def wrap(self, phase: str, fn):
        def timed(*args, **kwargs):
            self.inner.append(0.0)
            start = process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                total = process_time() - start
                self.spent[phase] += total - self.inner.pop()
                if self.inner:
                    self.inner[-1] += total

        return timed


# (owner, name, phase) of every call timed inside a handler.  A checkout
# without one of them (an older ``observe`` has no ``_duality_report``)
# charges its time to the phase of the call around it.
TIMED = (
    (cli, "_load", "read"),
    (cli, "parse_spec", "parse"),
    (specfmt.CodeSpecDocument, "to_block_code", "build"),
    (specfmt.CodeSpecDocument, "to_convolutional", "build"),
    (observe, "_duality_report", "values"),
    (observe.DualityReport, "render", "render/emit"),
)


def run_pass(clock: PhaseClock, paths: list[str], commands: tuple[str, ...]) -> None:
    """One op per path, every command on it, as ``cli.main`` runs it."""
    arguments = clock.wrap("argv", getattr(cli, "_arguments", None) or cli.build_parser().parse_args)
    emit = clock.wrap("render/emit", cli._emit)
    linalg._howell_cached.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for path in paths:
            for command in commands:
                args = arguments([command, path])
                try:
                    emit(args, *clock.wrap("analysis", args.fn)(args))
                except (ValueError, cli.OracleBoundExceeded):
                    pass


def phase_times(workload: str, seed: int, limit: int | None, repeat: int) -> tuple[int, list]:
    """(ops per pass, one Counter of seconds per phase for each pass)."""
    commands = report_digest.workloads.COMMANDS[workload]
    passes = []
    with tempfile.TemporaryDirectory() as work:
        paths = []
        for spec in report_digest.pool(workload, seed, limit):
            paths.append(os.path.join(work, spec.name))
            with open(paths[-1], "w", encoding="utf-8") as handle:
                handle.write(spec.text)
        timed = [(owner, name, phase) for owner, name, phase in TIMED if name in vars(owner)]
        getattr(cli, "_plain_namespaces", cli.build_parser)()
        for _ in range(repeat):
            clock = PhaseClock()
            originals = [(owner, name, vars(owner)[name]) for owner, name, _ in timed]
            for owner, name, phase in timed:
                setattr(owner, name, clock.wrap(phase, vars(owner)[name]))
            try:
                run_pass(clock, paths, commands)
            finally:
                for owner, name, fn in originals:
                    setattr(owner, name, fn)
            passes.append(clock.spent)
    return len(paths), passes


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
    ops, passes = phase_times(args.workload, args.seed, args.limit, args.repeat)
    medians = {phase: statistics.median(p[phase] for p in passes) for phase in PHASES}
    total = sum(medians.values())
    commands = " ".join(report_digest.workloads.COMMANDS[args.workload])
    print(
        f"{args.workload} seed {args.seed}: {ops} ops ({commands}), "
        f"median of {args.repeat} passes, CPU seconds per pass"
    )
    print(f"{'phase':<12}{'seconds':>12}{'share':>9}")
    for phase in PHASES + ("all",):
        seconds = total if phase == "all" else medians[phase]
        share = seconds / total if total else 0.0
        print(f"{phase:<12}{seconds:>12.6f}{share:>9.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
