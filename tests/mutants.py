"""Named mutants of ``src/groupcodes`` and the tests expected to kill them.

    python tests/mutants.py [--only NAME ...] [--budget SECONDS]

Each mutant names a file under ``src/groupcodes``, an exact snippet of it
that occurs there once, and the snippet's replacement, with either the
tests that must fail on the mutated source (pytest node ids, from the
repository root) or the reason the mutant is equivalent.

The replay first runs the union of the named tests once on an unmutated
copy of ``src/``; they must pass, so that a kill is the mutant's.  Then,
per mutant, it copies ``src/`` into a temporary directory, applies the
replacement there, and runs the mutant's tests in a child ``pytest``
process that imports ``groupcodes`` from the copy (``PYTHONPATH``), under
a wall budget.  It prints one line per mutant: ``killed`` with the tests
that failed, ``SURVIVED``, ``TIMEOUT`` or ``equivalent`` (not run).  The
exit status is 0 exactly when the unmutated run passes and every mutant
expected to be killed is killed.  Mutants run one at a time, each in one
child process.  A named test that starts a program of its own must take
``groupcodes`` from ``PYTHONPATH``: ``tests/test_api_surface.py`` and
``tests/test_bench_trace.py`` put the repository's ``src/`` first, so
they never see a mutant and are named by none.

Tier-1 (``tests/test_mutants.py``) checks only that each snippet occurs
exactly once and that a failed test's node id is read whole; the replay
is opt-in.  A change that rewrites the code under a snippet updates the
snippet and replays the mutant.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    path: str  # under src/groupcodes
    snippet: str
    replacement: str
    killers: tuple[str, ...] = ()
    equivalent: Optional[str] = None


MUTANTS = (
    Mutant(
        "chain-without-row-dedup",
        "codes.py",
        "                if row not in pushed:\n"
        "                    pushed.add(row)\n"
        "                    new.append(row)\n",
        "                new.append(row)\n",
        ("tests/test_control.py::TestCountedChain::test_band_codes",),
    ),
    Mutant(
        "chain-equal-spans-separate-objects",
        "codes.py",
        "        if chain and rows == chain[-1].basis.rows:\n"
        "            chain.append(chain[-1])\n"
        "        else:\n"
        "            chain.append(BlockCode.from_howell(space, rows))\n",
        "        chain.append(BlockCode.from_howell(space, rows))\n",
        (
            "tests/test_observe.py::TestOwnerGate",
            "tests/test_control.py::TestCountedChain::test_band_codes",
        ),
    ),
    Mutant(
        "matched-side-padded-with-wrong-top",
        "observe.py",
        "        return duals + duals[-1:] * (N - len(duals))\n",
        "        return duals + duals[:1] * (N - len(duals))\n",
        ("tests/test_observe.py::TestDualityReportTwin::test_band_specs",),
    ),
    Mutant(
        "pairing-pass-first-start-one-symbol-late",
        "observe.py",
        "                    column_rows.setdefault(c, []).append((offsets[k], id(y), y[c]))\n",
        "                    column_rows.setdefault(c, []).append((offsets[k + 1], id(y), y[c]))\n",
        (
            "tests/test_observe.py::test_walk_matches_cut_windows_on_wrong_dual_records",
            "tests/test_observe.py::test_duality_walk_reads_each_suffix_record_once_and_copies_no_dual_row",
            "tests/test_observe.py::test_wrong_entry_of_the_shared_prefix_table_fails_its_windows",
        ),
    ),
    Mutant(
        "prefix-step-pushes-one-row-short",
        "codes.py",
        "        self.state.push(row[::-1] for row in self.reversed_rows[i:j])\n",
        "        self.state.push(row[::-1] for row in self.reversed_rows[i + 1 : j])\n",
        ("tests/test_codes.py::TestPrefixSweep",),
    ),
    Mutant(
        "no-annihilator-push-in-single-kernel",
        "linalg.py",
        "                w = [0] * (j + 1) + [(c * e) % m for e, m in zip(row[j + 1 :], moduli[j + 1 :])]\n"
        "                if any(w):\n"
        "                    stack.append(w)\n",
        "                pass\n",
        ("tests/test_linalg.py::TestPackedKernel",),
    ),
    Mutant(
        "trim-drops-rows-without-pushing-them-again",
        "linalg.py",
        "        self.replace(dropped, [self._cut(self.pivots[j], cut) for j in dropped])\n",
        "        self.replace(dropped, [])\n",
        ("tests/test_codes.py::TestSuffixSweep",),
    ),
    Mutant(
        "settle-loop-skipped",
        "convolutional.py",
        "        while current not in fixed and (following := states(s + 1, current, width)) != current:\n"
        "            step, current = step + 1, following\n",
        "",
        ("tests/test_convolutional.py::TestSettleStep",),
    ),
    Mutant(
        "spec-comma-count-check-removed",
        "specfmt.py",
        '        if list(map(str.count, tokens, repeat(","))) == commas:\n',
        "        if True:\n",
        ("tests/test_specfmt.py::TestOnePassParserTwin",),
    ),
    Mutant(
        "spec-range-check-removed",
        "specfmt.py",
        "            if entries is not None and list(map(mod, entries, flat)) == entries:\n",
        "            if entries is not None:\n",
        ("tests/test_specfmt.py::TestParse::test_out_of_range_residue",),
    ),
    Mutant(
        "sieve-stops-one-prime-early",
        "linalg.py",
        "    for p in range(2, isqrt(n) + 1):\n",
        "    for p in range(2, isqrt(n) - 1):\n",
        ("tests/test_linalg.py::TestSmallPrimeSieve",),
    ),
    Mutant(
        "pairing-without-weights",
        "duality.py",
        "    total = sum(a * b * (L // m) for a, b, m in zip(x.residues, coeffs.residues, moduli))\n",
        "    total = sum(a * b for a, b, m in zip(x.residues, coeffs.residues, moduli))\n",
        ("tests/test_duality.py::TestPairing",),
    ),
    Mutant(
        "oracle-reachable-tail-one-symbol-late",
        "oracle.py",
        "    tail = enum.offsets[min(k + L, horizon)]\n",
        "    tail = enum.offsets[min(k + L + 1, horizon)]\n",
        ("tests/test_oracle.py::TestOnePassTwins",),
    ),
    Mutant(
        "oracle-agreement-by-count-only",
        "cli.py",
        "    return engine.cardinality == len(brute) and not set(engine.basis.rows).difference(brute)\n",
        "    return engine.cardinality == len(brute)\n",
        (
            "tests/test_cli.py::TestOracle::test_consistency_set_missing_an_outside_unit_disagrees",
            "tests/test_cli.py::TestOracle::test_a_basis_row_outside_the_list_disagrees",
        ),
    ),
    Mutant(
        "oracle-consistency-windows-one-short",
        "cli.py",
        "            for L in range(N - k)\n",
        "            for L in range(N - k - 1)\n",
        ("tests/test_cli.py::TestOracle::test_wrong_consistency_set_on_the_whole_tail_disagrees",),
    ),
    Mutant(
        "plain-dispatch-without-the-dash-check",
        "cli.py",
        '        if template is not None and not spec.startswith("-"):\n',
        "        if template is not None:\n",
        ("tests/test_cli.py::TestPlainDispatch::test_every_other_shape_is_argparse",),
    ),
    Mutant(
        "plain-template-without-its-format-default",
        "cli.py",
        '        name: vars(build_parser().parse_args([name, ""]))\n',
        '        name: {k: v for k, v in vars(build_parser().parse_args([name, ""])).items() if k != "format"}\n',
        ("tests/test_cli.py::TestPlainDispatch::test_plain_line_twins_argparse",),
    ),
    Mutant(
        "control-profile-window-off-by-one",
        "codes.py",
        "            inner = 1 if end == k else suffix if end == horizon else order(k, end)\n",
        "            inner = 1 if end == k else suffix if end == horizon else order(k, end + 1)\n",
        (
            "tests/test_control.py::TestControlProfile::test_even_weight",
            "tests/test_control.py::TestTableReads::test_control_profile_matches_oracle",
        ),
    ),
    Mutant(
        "peel-drops-only-the-b-rows",
        "structure.py",
        "    pushed = [rows[i] for i in range(split[0], split[-1] + 1) if not values[i]]\n"
        "    pushed.append(tuple(L // g * e % m for e, m in zip(b, reversed_moduli)))\n"
        "    for i in split:\n"
        "        if i != star:\n"
        "            q = values[i] // g * unit % (L // g)\n"
        "            pushed.append(tuple((e - q * f) % m for e, f, m in zip(rows[i], b, reversed_moduli)))\n"
        "    state.replace(columns[split[0] : split[-1] + 1], pushed)\n",
        "    pushed = [tuple(L // g * e % m for e, m in zip(b, reversed_moduli))]\n"
        "    for i in split:\n"
        "        if i != star:\n"
        "            q = values[i] // g * unit % (L // g)\n"
        "            pushed.append(tuple((e - q * f) % m for e, f, m in zip(rows[i], b, reversed_moduli)))\n"
        "    state.replace([columns[i] for i in split], pushed)\n",
        (
            "tests/test_structure.py::TestPeelComplementByKernel::test_rows_between_the_split_rows_are_pushed_again",
            "tests/test_structure.py::TestPeelGrowth::test_rows_pushed_grow_linearly",
        ),
    ),
    # The injections of the duality mutation tests of
    # ``tests/test_observe.py``, each made in the source.
    Mutant(
        "walk-reads-the-whole-code-as-prefix-entry-one",
        "observe.py",
        "    entries = [code._prefixes.entry(b) for b in range(N + 1)]\n",
        "    entries = [code._prefixes.entry(N if b == 1 else b) for b in range(N + 1)]\n",
        ("tests/test_observe.py::test_broken_prefix_nesting_fails_the_chain",),
    ),
    Mutant(
        "walk-dual-records-first-pivot-one-column-late",
        "observe.py",
        "    records = [dual._suffix(k) for k in range(N)]\n",
        "    records = [dual._suffix(k) for k in range(N)]\n"
        "    records = [(r[0], r[1][:1] and (r[1][0] + 1,) + r[1][1:], r[2]) for r in records]\n",
        ("tests/test_observe.py::test_broken_dual_suffix_projection_fails_the_nesting",),
    ),
    Mutant(
        "walk-dual-records-without-their-first-row",
        "observe.py",
        "    records = [dual._suffix(k) for k in range(N)]\n",
        "    records = [dual._suffix(k) for k in range(N)]\n"
        "    records = [\n"
        "        (r[0][1:], r[1][1:], tuple(p // r[2][1] for p in r[2][1:])) if r[0] else r\n"
        "        for r in records\n"
        "    ]\n",
        ("tests/test_observe.py::test_wrong_dual_suffix_record_fails_a_window_of_its_start",),
    ),
    Mutant(
        "dual-local-dual-without-its-first-row",
        "codes.py",
        "        source = self.__dict__.get(\"_dual_source\")\n",
        "        source = self.__dict__.get(\"_dual_source\")\n"
        "        rows = rows[1:] if source is not None else rows\n",
        ("tests/test_observe.py::test_dropped_row_of_the_dual_local_dual_mismatches",),
    ),
    Mutant(
        "walk-prefix-entries-last-column-negated",
        "observe.py",
        "    entries = [code._prefixes.entry(b) for b in range(N + 1)]\n",
        "    entries = [code._prefixes.entry(b) for b in range(N + 1)]\n"
        "    entries = [\n"
        "        (tuple(x[: o - 1] + (-x[o - 1] % moduli[o - 1],) + x[o:] for x in e[0]), *e[1:]) if o else e\n"
        "        for o, e in zip(offsets, entries)\n"
        "    ]\n",
        ("tests/test_observe.py::test_wrong_entry_of_the_shared_prefix_table_fails_its_windows",),
    ),
    Mutant(
        "window-read-drops-the-last-dual-row",
        "observe.py",
        "        reads.append((xs, i, x_products[-1] // x_products[i], ys, j, y_products[j]))\n",
        "        j = max(j - 1, 0)\n"
        "        reads.append((xs, i, x_products[-1] // x_products[i], ys, j, y_products[j]))\n",
        ("tests/test_observe.py::test_wrong_dual_projection_fails_its_window",),
    ),
    Mutant(
        "walk-dual-records-first-column-negated",
        "observe.py",
        "    records = [dual._suffix(k) for k in range(N)]\n",
        "    records = [dual._suffix(k) for k in range(N)]\n"
        "    records = [\n"
        "        (tuple(y[:c] + (-y[c] % moduli[c],) + y[c + 1 :] for y in r[0]), *r[1:])\n"
        "        for c, r in zip(offsets, records)\n"
        "    ]\n",
        ("tests/test_observe.py::test_walk_matches_cut_windows_on_wrong_dual_records",),
    ),
    Mutant(
        "strong-index-kernel-record-keeps-head-rows",
        "convolutional.py",
        "    return _tails(_howell_record(_annihilator_graph(matrix))[0], len(rows))\n",
        "    return tuple(row[len(rows):] for row in _howell_record(_annihilator_graph(matrix))[0])\n",
        (
            "tests/test_convolutional.py::TestStrongIndexWindows"
            "::test_reversed_build_is_the_local_window",
        ),
    ),
    Mutant(
        "annihilator-request-keeps-head-rows",
        "linalg.py",
        "        return _tails(_howell_kernel(graph.rows, graph.moduli), len(rows))\n",
        "        return tuple(row[len(rows):] for row in _howell_kernel(graph.rows, graph.moduli))\n",
        (
            "tests/test_linalg.py::TestAnnihilator::test_annihilator_by_enumeration",
            "tests/test_linalg.py::TestAnnihilatorRequest::test_corpora",
        ),
    ),
    Mutant(
        "scaled-form-records-unscaled-rows",
        "control.py",
        "    rows = (tuple(t * e % m for e, m in zip(r[lo:hi], moduli)) for r in _internal(code, a, b))\n",
        "    rows = (r[lo:hi] for r in _internal(code, a, b))\n",
        (
            "tests/test_control.py::TestOrderProfile::test_higher_prime_power_level_binds",
            "tests/test_control.py::TestCountedOrderSplit::test_higher_levels_over_z16",
        ),
    ),
    Mutant(
        "block-code-equality-by-space-only",
        "codes.py",
        "        return self.space == other.space and self.basis == other.basis\n",
        "        return self.space == other.space\n",
        ("tests/test_value_classes.py::test_a_field_that_differs_breaks_equality",),
    ),
    Mutant(
        "sequence-space-hash-without-symbols",
        "codes.py",
        "        return hash((self.symbols,))\n",
        "        return hash(())\n",
        (
            "tests/test_value_classes.py::"
            "test_equal_fields_give_equal_objects_and_hashes[SequenceSpace]",
        ),
    ),
)


def source_of(mutant: Mutant) -> str:
    return (SOURCE / "groupcodes" / mutant.path).read_text(encoding="utf-8")


# A ``FAILED`` line of ``pytest -rf``: the node id, whose parameters in
# brackets may hold spaces, then pytest's `` - `` and the message, if any.
FAILED_LINE = re.compile(r"FAILED (\S*?(?:\[.*?\])?)(?: - .*)?$")


def failed_id(line: str) -> str:
    """The node id of a ``FAILED`` line of ``pytest -rf``."""
    return FAILED_LINE.match(line).group(1)


def run_tests(source: Path, tests: list[str], budget: float) -> tuple[str, list[str], float]:
    """(outcome, failed node ids, seconds) of one child ``pytest`` run of
    ``tests`` importing ``groupcodes`` from ``source``: outcome "passed",
    "failed" or "timeout"."""
    env = dict(os.environ, PYTHONPATH=str(source), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    start = time.monotonic()
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=budget
        )
    except subprocess.TimeoutExpired:
        return "timeout", [], time.monotonic() - start
    failed = [failed_id(line) for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    outcome = "passed" if done.returncode == 0 else "failed"
    if outcome == "failed" and not failed:  # a collection error, or pytest itself failed
        failed = [done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "no output"]
    return outcome, failed, time.monotonic() - start


def replay(mutants: list[Mutant], budget: float) -> bool:
    """Replay ``mutants`` as the module docstring says; whether all hold."""
    for mutant in mutants:
        count = source_of(mutant).count(mutant.snippet)
        if count != 1:
            raise SystemExit(f"{mutant.name}: snippet occurs {count} times in {mutant.path}")
    killers = list(dict.fromkeys(t for m in mutants for t in m.killers))
    holds = True
    with tempfile.TemporaryDirectory() as work:
        copy = Path(work) / "src"
        shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if killers:
            outcome, failed, seconds = run_tests(copy, killers, budget)
            print(f"{'unmutated':45} {outcome:10} {seconds:7.1f}s {' '.join(failed)}", flush=True)
            holds = outcome == "passed"
        for mutant in mutants:
            if mutant.equivalent is not None:
                print(f"{mutant.name:45} {'equivalent':10} {'':8} {mutant.equivalent}")
                continue
            target = copy / "groupcodes" / mutant.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
            try:
                outcome, failed, seconds = run_tests(copy, list(mutant.killers), budget)
            finally:
                target.write_text(original, encoding="utf-8")
            verdict = {"failed": "killed", "passed": "SURVIVED", "timeout": "TIMEOUT"}[outcome]
            print(f"{mutant.name:45} {verdict:10} {seconds:7.1f}s {' '.join(failed)}", flush=True)
            holds = holds and verdict == "killed"
    return holds


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="replay these mutants only")
    parser.add_argument("--budget", type=float, default=600.0, help="wall seconds per child run")
    args = parser.parse_args(argv)
    names = {m.name for m in MUTANTS}
    unknown = set(args.only or ()) - names
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]
    return 0 if replay(chosen, args.budget) else 1


if __name__ == "__main__":
    raise SystemExit(main())
