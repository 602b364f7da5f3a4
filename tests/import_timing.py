"""CPU time of a cold import of the package and of three of its modules.

    python tests/import_timing.py [--repeat 5]

Each target (``groupcodes``, ``groupcodes.codes``,
``groupcodes.convolutional`` and ``groupcodes.cli``) is imported in a
fresh interpreter with bytecode writing off (``PYTHONDONTWRITEBYTECODE=1``,
as the benchmark runs).  The package is imported from a copy of this
checkout's ``src/groupcodes/*.py`` in a temporary directory, so no
``__pycache__`` a test run left in ``src`` is read and every package module
the import loads is compiled from source; the standard library's cached
bytecode is read as usual.  The child reads its own process CPU time
around the import statement alone; interpreter start-up is not counted.
The targets take turns, ``--repeat`` rounds of one interpreter each, so a change in the
machine's load falls on all of them alike.  One line per target gives the
median CPU milliseconds and how many ``groupcodes`` modules, the package
included, the import left in ``sys.modules``.
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "groupcodes"
TARGETS = ("groupcodes", "groupcodes.codes", "groupcodes.convolutional", "groupcodes.cli")
CHILD = """\
import sys, time
start = time.process_time()
import {target}
spent = time.process_time() - start
print(spent, sum(1 for n in sys.modules if n.split(".")[0] == "groupcodes"))
"""


def cold_import(target: str, env: dict) -> tuple[float, int]:
    """CPU seconds of one cold import of ``target``, and the number of
    package modules it loaded."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD.format(target=target)],
        env=env, capture_output=True, text=True, check=True,
    )
    spent, modules = done.stdout.split()
    return float(spent), int(modules)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5, help="fresh interpreters per target")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    times = {target: [] for target in TARGETS}
    loaded = {}
    with tempfile.TemporaryDirectory() as copy:
        shutil.copytree(
            PACKAGE, Path(copy) / "groupcodes", ignore=shutil.ignore_patterns("__pycache__")
        )
        path = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ, PYTHONDONTWRITEBYTECODE="1",
            PYTHONPATH=os.pathsep.join([copy] + ([path] if path else [])),
        )
        for _ in range(args.repeat):
            for target in TARGETS:
                spent, loaded[target] = cold_import(target, env)
                times[target].append(spent)
    for target in TARGETS:
        median_ms = 1000 * statistics.median(times[target])
        print(f"{target:26s} {median_ms:7.1f} ms  {loaded[target]:2d} modules")
    return 0


if __name__ == "__main__":
    sys.exit(main())
