"""CPU time of a cold import of the package, of three of its modules and of
the benchmark set-up's modules.

    python tests/import_timing.py [--repeat 5]

Each target (``groupcodes``, ``groupcodes.codes``,
``groupcodes.convolutional``, ``groupcodes.cli``, and ``bench-setup``: the
four modules ``bench/workloads.py`` imports, in one statement) is imported
in a fresh interpreter with bytecode writing off (``PYTHONDONTWRITEBYTECODE=1``,
as the benchmark runs).  The package is imported from a copy of this
checkout's ``src/groupcodes/*.py`` in a temporary directory, so no
``__pycache__`` a test run left in ``src`` is read and every package module
the import loads is compiled from source; the standard library's cached
bytecode is read as usual.  The child reads its own process CPU time
around the import statement alone; interpreter start-up is not counted.
The targets take turns, ``--repeat`` rounds of one interpreter each, so a change in the
machine's load falls on all of them alike.  One line per target gives the
median CPU milliseconds, how many ``groupcodes`` modules, the package
included, the import left in ``sys.modules``, and the standard-library
modules it loaded beyond those interpreter start-up had loaded (comma
separated, ``-`` for none).
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
# Target name -> the modules its one import statement names.
TARGETS = {
    "groupcodes": "groupcodes",
    "groupcodes.codes": "groupcodes.codes",
    "groupcodes.convolutional": "groupcodes.convolutional",
    "groupcodes.cli": "groupcodes.cli",
    "bench-setup": (
        "groupcodes.codes, groupcodes.convolutional, groupcodes.duality, groupcodes.groups"
    ),
}
CHILD = """\
import sys, time
before = set(sys.modules)
start = time.process_time()
import {modules}
spent = time.process_time() - start
new = set(sys.modules) - before
stdlib = ",".join(sorted(n for n in new if n.split(".")[0] in sys.stdlib_module_names))
print(spent, sum(1 for n in sys.modules if n.split(".")[0] == "groupcodes"), stdlib or "-")
"""


def cold_import(modules: str, env: dict) -> tuple[float, int, str]:
    """CPU seconds of one cold import of ``modules``, the number of package
    modules it loaded, and the standard-library modules it loaded."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD.format(modules=modules)],
        env=env, capture_output=True, text=True, check=True,
    )
    spent, count, stdlib = done.stdout.split()
    return float(spent), int(count), stdlib


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
            for target, modules in TARGETS.items():
                spent, *loaded[target] = cold_import(modules, env)
                times[target].append(spent)
    for target in TARGETS:
        median_ms = 1000 * statistics.median(times[target])
        count, stdlib = loaded[target]
        print(f"{target:26s} {median_ms:7.1f} ms  {count:2d} modules  {stdlib}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
