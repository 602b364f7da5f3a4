"""CPU time of each brute-force twin of ``groupcodes.oracle`` on the
N = 8 golden band specs.

    PYTHONPATH=src python tests/oracle_timing.py

Each spec is enumerated once, and each twin then runs on it as the
``oracle`` command runs it: the reachable and consistency sets on every
window that command checks, summed.  The control profile, which the
command does not report, is timed too.  A twin still running after 60 s
of wall time is stopped and reported so.  The script reads only the
public ``brute_*`` names, so it times an older tree the same way when
that tree's ``src`` comes first on ``PYTHONPATH``.
"""

import signal
import time
from pathlib import Path

from groupcodes import oracle
from groupcodes.specfmt import parse_spec

SPECS = Path(__file__).resolve().parent / "golden" / "specs"
NAMES = ("z4_band8_code.spec", "z4_band8_dual.spec", "mixed_band8.spec")
BUDGET_S = 60


class Stopped(Exception):
    pass


def _stop(signum, frame):
    raise Stopped


def twins(enum, N, bound):
    """(name, run) per twin, each run over the windows ``oracle`` checks."""
    return (
        ("reachable sets", lambda: [
            oracle.brute_reachable_set(enum, k, L) for k in range(N) for L in range(N - k + 1)
        ]),
        ("consistency sets", lambda: [
            oracle.brute_consistency_set(enum, k, L, bound) for k in range(N) for L in range(N + 1)
        ]),
        ("annihilator", lambda: oracle.brute_annihilator(enum, bound)),
        ("order profile", lambda: oracle.brute_order_profile(enum)),
        ("control profile", lambda: oracle.brute_control_profile(enum)),
        ("invariant factors", lambda: oracle.brute_smith_invariants(enum)),
    )


def main():
    signal.signal(signal.SIGALRM, _stop)
    for name in NAMES:
        code = parse_spec((SPECS / name).read_text(encoding="utf-8")).to_block_code()
        enum = oracle.enumerate_code(code)
        print(f"{name}: |C| = {len(enum.words)}, ambient {code.space.cardinality}", flush=True)
        for twin, run in twins(enum, code.space.horizon, oracle.DEFAULT_BOUND):
            start = time.process_time()
            signal.alarm(BUDGET_S)
            try:
                run()
                outcome = f"{time.process_time() - start:.2f} s"
            except Stopped:
                outcome = f"stopped after {BUDGET_S} s"
            finally:
                signal.alarm(0)
            print(f"  {twin}: {outcome}", flush=True)


if __name__ == "__main__":
    main()
