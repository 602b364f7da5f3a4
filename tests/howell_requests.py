"""Howell-form requests per call site over one pass of a benchmark pool.

    PYTHONPATH=src python tests/howell_requests.py --workload W [--seed 7]
        [--limit K] [--scope {pass,op,command}] [--per-op]

The pool of workload W and the seed (the specs a 36 s run of
``bench/run.py`` generates, or the first K; ``report_digest.pool``) is run
once as the benchmark's loop runs it: each spec is one op, every command
the workload names in ``bench/workloads.py`` on it through
``groupcodes.cli.main``.  The Howell cache is cleared once before the
first op (``--scope pass``, the default and the benchmark's loop), before
every op (``op``) or before every command (``command``).  Every call of
``linalg.howell_form`` is a request.  It is counted at its call site: the
innermost calling function outside ``groupcodes.linalg`` and the
dataclass checks (``__post_init__``), with the outermost of those it came
through, if any, after "via".  A request is a kernel run when it misses
``linalg._howell_cached``, and a repeat when the same rows and moduli
were requested before in the pass, at any site.  A repeat is
within-command when they were requested before in the same command,
else cross-command when before in the same op, else cross-op.  So,
barring evictions, a cache cleared per command runs the kernel on every
request but the within-command repeats, and one cleared per op on every
request but the within-op ones; the requests and repeats are the same in
every scope.

One line per call site is printed, most requests first, then one for all
sites; ``--per-op`` adds one line per op, in pool order.  Only the
standard library is used besides the program and the benchmark's
generator, which is read, not changed.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import report_digest  # noqa: E402  (the pools; bench/workloads.py, read-only)

from groupcodes import linalg  # noqa: E402

FIELDS = ("requests", "kernel runs", "repeats", "cross-op", "cross-command", "within-command")
SCOPES = ("pass", "op", "command")  # the cache is cleared once per scope


def call_site(frame) -> str:
    """The innermost caller outside ``linalg`` and the dataclass checks,
    and the outermost of those it called on the way, if any."""
    via = None
    while frame is not None:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "").removeprefix("groupcodes.")
        name = f"{module}.{code.co_qualname}"
        if code.co_filename != "<string>":  # not a dataclass's generated __init__
            if module != "linalg" and code.co_name != "__post_init__":
                return name if via is None else f"{name} via {via}"
            via = name
        frame = frame.f_back
    return via


def count_requests(
    workload: str, seed: int, limit: int | None, scope: str = "pass"
) -> tuple[dict, list]:
    """(counts per call site, (spec name, counts) per op) of one pass, the
    cache cleared once per ``scope``; the counts are a ``Counter`` over
    ``FIELDS``."""
    canonical, cached = linalg.howell_form, linalg._howell_cached
    sites: dict[str, Counter] = {}
    ops: list[tuple[str, Counter]] = []
    # The keys requested before in the pass, in the op and in the command.
    seen: dict[str, set] = {kind: set() for kind in SCOPES}

    def counted(matrix):
        key = (matrix.rows, matrix.moduli)
        misses = cached.cache_info().misses
        result = canonical(matrix)
        repeat = next((kind for kind in reversed(SCOPES) if key in seen[kind]), None)
        counts = Counter(
            {
                "requests": 1,
                "kernel runs": cached.cache_info().misses - misses,
                "repeats": repeat is not None,
                "cross-op": repeat == "pass",
                "cross-command": repeat == "op",
                "within-command": repeat == "command",
            }
        )
        for keys in seen.values():
            keys.add(key)
        sites.setdefault(call_site(sys._getframe(1)), Counter()).update(counts)
        ops[-1][1].update(counts)
        return result

    bound = [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("groupcodes") and getattr(module, "howell_form", None) is canonical
    ]
    specs = report_digest.pool(workload, seed, limit)
    cached.cache_clear()
    for module in bound:
        module.howell_form = counted
    try:
        with tempfile.TemporaryDirectory() as work:
            for spec in specs:
                path = os.path.join(work, spec.name)
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(spec.text)
                ops.append((spec.name, Counter()))
                seen["op"].clear()
                if scope == "op":
                    cached.cache_clear()
                for command in report_digest.workloads.COMMANDS[workload]:
                    seen["command"].clear()
                    if scope == "command":
                        cached.cache_clear()
                    report_digest.report((command,), path)
    finally:
        for module in bound:
            module.howell_form = canonical
    return sites, ops


def line(label: str, counts: Counter) -> str:
    return f"{label:<72}" + "".join(f"{counts[field]:>15}" for field in FIELDS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(report_digest.COMMANDS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument("--scope", choices=SCOPES, default="pass")
    parser.add_argument("--per-op", action="store_true")
    args = parser.parse_args(argv)
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be at least 1")
    sites, ops = count_requests(args.workload, args.seed, args.limit, args.scope)
    commands = " ".join(report_digest.workloads.COMMANDS[args.workload])
    print(
        f"{args.workload} seed {args.seed}: {len(ops)} ops ({commands}), one pass,"
        f" cache cleared per {args.scope}"
    )
    print(f"{'call site':<72}" + "".join(f"{field:>15}" for field in FIELDS))
    for site, counts in sorted(sites.items(), key=lambda item: (-item[1]["requests"], item[0])):
        print(line(site, counts))
    print(line("all", sum(sites.values(), Counter())))
    if args.per_op:
        for i, (name, counts) in enumerate(ops):
            print(line(f"op {i} {name}", counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
