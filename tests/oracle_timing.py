"""CPU time of each brute-force twin of ``groupcodes.oracle`` on the
N = 8 golden band specs.

    PYTHONPATH=src python tests/oracle_timing.py

Each spec is enumerated once, and each twin then runs on it as the
``oracle`` command runs it: the reachable and consistency sets on every
window that command checks, summed.  The control profile, which the
command does not report, is timed too.  One more line times the engine
side of the consistency-set checks: each window's ``consistency_set`` and
its agreement with the twin's list, built beforehand
(``cli._consistency_agrees``; a tree without it is timed by its rule
then, a membership test per listed word).  A twin or line still running
after 60 s of wall time is stopped and reported so.  The twins are read
by their public ``brute_*`` names, so the script times an older tree the
same way when that tree's ``src`` comes first on ``PYTHONPATH``.
"""

import signal
import time
from pathlib import Path

from groupcodes import cli, oracle
from groupcodes.observe import consistency_set
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


def consistency_agreement(code, enum, bound):
    """The engine side of the consistency-set checks of ``oracle``: its
    run returns the CPU time of each window's ``consistency_set`` and
    agreement, summed, with each brute list built off the clock and
    dropped after its window."""
    N = code.space.horizon

    def agrees(engine, brute, k, L):
        if hasattr(cli, "_consistency_agrees"):
            window = code.space.flat_slice(k, min(k + L + 1, N))
            return cli._consistency_agrees(engine, brute, window)
        return engine.cardinality == len(brute) and all(map(engine.contains, brute))

    def run():
        spent = 0.0
        for k in range(N):
            for L in range(N + 1):
                brute = oracle.brute_consistency_set(enum, k, L, bound)
                start = time.process_time()
                agrees(consistency_set(code, k, L), brute, k, L)
                spent += time.process_time() - start
        return spent

    return run


def main():
    signal.signal(signal.SIGALRM, _stop)
    for name in NAMES:
        code = parse_spec((SPECS / name).read_text(encoding="utf-8")).to_block_code()
        enum = oracle.enumerate_code(code)
        print(f"{name}: |C| = {len(enum.words)}, ambient {code.space.cardinality}", flush=True)
        runs = [
            *twins(enum, code.space.horizon, oracle.DEFAULT_BOUND),
            ("consistency agreement (engine)", consistency_agreement(code, enum, oracle.DEFAULT_BOUND)),
        ]
        for twin, run in runs:
            start = time.process_time()
            signal.alarm(BUDGET_S)
            try:
                spent = run()
                if not isinstance(spent, float):
                    spent = time.process_time() - start
                outcome = f"{spent:.2f} s"
            except Stopped:
                outcome = f"stopped after {BUDGET_S} s"
            finally:
                signal.alarm(0)
            print(f"  {twin}: {outcome}", flush=True)


if __name__ == "__main__":
    main()
