"""Smoke test of `tests/howell_requests.py`, the Howell request counter,
and the gate on the readers that own their Howell records."""

import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tests" / "howell_requests.py"
FIELDS = (
    "requests", "kernel runs", "repeats", "cross-op", "cross-command", "within-command", "bytes"
)


def counts(row: str) -> tuple[str, tuple[int, ...]]:
    label, *numbers = row.rsplit(maxsplit=len(FIELDS))
    return label, tuple(map(int, numbers))


def run_tool(
    workload: str, scope: str = "pass", limit: int = 4
) -> tuple[list, list, tuple[int, ...]]:
    """(per-site counts, per-op counts, all counts) of the tool on the first
    ``limit`` specs of the seed-7 pool, the cache cleared once per
    ``scope``."""
    done = subprocess.run(
        [
            sys.executable, str(TOOL), "--workload", workload, "--limit", str(limit),
            "--scope", scope, "--per-op",
        ],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    head, columns, *rows = done.stdout.splitlines()
    assert head.startswith(f"{workload} seed 7: {limit} ops (")
    assert head.endswith(f"), one pass, cache cleared per {scope}")
    assert columns.split(maxsplit=2)[:2] == ["call", "site"]
    assert columns.split()[2:] == " ".join(FIELDS).split()
    total = next(i for i, row in enumerate(rows) if row.startswith("all "))
    sites = [counts(row) for row in rows[:total]]
    ops = [counts(row) for row in rows[total + 1 :]]
    return sites, ops, counts(rows[total])[1]


@pytest.mark.parametrize("workload", ["block-codes", "long-horizon", "convolutional"])
def test_four_specs_add_up(workload):
    sites, ops, every = run_tool(workload)
    assert sites and len({label for label, _ in sites}) == len(sites)
    assert [label.split()[:2] for label, _ in ops] == [["op", str(i)] for i in range(4)]
    for part in (sites, ops):
        assert tuple(map(sum, zip(*(c for _, c in part)))) == every
    # The suffix records are one trimming sweep per code, and each primary
    # part of a decomposition is one Howell state that every peel step
    # changes in place: no Howell form is requested while a suffix record
    # is read, a part is entered or a peel step runs.
    for site in ("codes.BlockCode._suffix", "structure._primary", "structure._peel"):
        assert not any(label.startswith(site) for label, _ in sites), site
    # Every pool dualizes: annihilator requests are counted at their sites.
    assert any(label.endswith(" via linalg.annihilator_rows") for label, _ in sites)
    requests, runs, repeats, *split, size = every
    # The cache starts empty, so each distinct input runs the kernel at
    # least once; a repeat may run it again only after an eviction.
    assert 0 < requests - repeats <= runs <= requests
    assert sum(split) == repeats
    # Each kernel run leaves one entry, of positive size, in the cache.
    assert size > 0
    assert all((c[1] > 0) == (c[6] > 0) for _, c in sites + ops)


def test_each_scope_runs_the_kernel_on_what_its_cache_misses():
    # Clearing the cache per op or per command changes only the kernel
    # runs: each cleared scope runs the kernel again on the repeats from
    # before it (twelve specs stay far from an eviction).  On seed 7,
    # block codes repeat across ops and commands, and the one command of
    # long-horizon repeats across ops and within itself.
    kinds = set()
    for workload in ("block-codes", "long-horizon"):
        scoped = {scope: run_tool(workload, scope, 12) for scope in ("pass", "op", "command")}
        sites, _, every = scoped["pass"]
        requests, runs, repeats, cross_op, cross_command, within, _ = every
        assert cross_op + cross_command + within == repeats > 0
        kinds.update(kind for kind, n in zip(FIELDS[3:6], every[3:6]) if n)
        expected = {
            "pass": requests - repeats,
            "op": requests - cross_command - within,
            "command": requests - within,
        }
        for scope, (scope_sites, _, scope_every) in scoped.items():
            # The same requests and repeats at the same sites, in every scope.
            assert [(label, c[:1] + c[2:6]) for label, c in scope_sites] == [
                (label, c[:1] + c[2:6]) for label, c in sites
            ]
            assert scope_every[1] == expected[scope], (workload, scope)
    assert kinds == set(FIELDS[3:6])


def run_pool(workload, limit=None):
    """One pass of the seed-7 pool of ``workload`` (or its first ``limit``
    ops) through the benchmark's commands, as ``howell_requests`` runs it."""
    import tempfile

    from . import report_digest

    with tempfile.TemporaryDirectory() as work:
        for spec in report_digest.pool(workload, 7, limit):
            path = Path(work) / spec.name
            path.write_text(spec.text, encoding="utf-8")
            for command in report_digest.workloads.COMMANDS[workload]:
                report_digest.report((command,), str(path))


def test_record_readers_request_no_cached_form_and_finish_nothing(monkeypatch):
    # The strong-index loop (past its weak verdict), ``_scaled_form`` and
    # ``_directness`` read pivot columns and orders only, off one owned
    # record each: over one seed-7 pass of the pools that run them, none
    # of them requests a form of ``_howell_cached`` or finishes a state
    # (712, 310 and 126 requests when each took a Howell form).
    import groupcodes.cli as cli
    import groupcodes.control as control
    import groupcodes.convolutional as convolutional
    import groupcodes.linalg as linalg
    import groupcodes.structure as structure

    inside, calls, requests, finished = [], Counter(), [], []

    def reader(name, original):
        def counted(*args):
            inside.append(name)
            calls[name] += 1
            try:
                return original(*args)
            finally:
                inside.pop()

        return counted

    cached = linalg._howell_cached
    monkeypatch.setattr(
        linalg, "_howell_cached", lambda *a: requests.append(inside[-1:]) or cached(*a)
    )
    strong = reader("strong index", convolutional.strong_controllability_index)
    for owner in (cli, convolutional):
        monkeypatch.setattr(owner, "strong_controllability_index", strong)
    # The weak verdict reads kept windows, not a reader of its own.
    monkeypatch.setattr(
        convolutional, "weak_controllability", reader(None, convolutional.weak_controllability)
    )
    monkeypatch.setattr(control, "_scaled_form", reader("scaled", control._scaled_form))
    monkeypatch.setattr(structure, "_directness", reader("directness", structure._directness))
    for state in (linalg._HowellSingle, linalg._HowellPacked):
        monkeypatch.setattr(
            state, "finish", lambda s, _f=state.finish: finished.append(inside[-1:]) or _f(s)
        )
    run_pool("convolutional")
    run_pool("block-codes")
    assert set(calls) == {"strong index", "scaled", "directness", None}
    for seen in (requests, finished):
        assert seen and all(frames in ([], [None]) for frames in seen)


def test_fresh_cache_holds_only_finished_forms():
    # The first 24 seed-7 convolutional ops from an empty cache leave 88
    # entries in ``_howell_cached`` (132 when each strong-index window's
    # Howell form was cached as well).
    from groupcodes import linalg

    linalg._howell_cached.cache_clear()
    run_pool("convolutional", 24)
    assert linalg._howell_cached.cache_info().currsize == 88


def test_cache_keeps_no_entry_wider_than_its_request(monkeypatch):
    # Over one seed-7 convolutional pass every answer of ``_howell_cached``
    # is as wide as the moduli of the request it answers, the outermost
    # ``howell_form`` or ``annihilator_rows`` call open: no annihilator
    # graph is cached, nor its Howell form (508 graph-wide entries when
    # the annihilator was the head kernel of its graph's cached form).
    import sys

    import groupcodes.linalg as linalg

    open_widths, answers, kinds = [], [], Counter()

    def request(name, original):
        def counted(matrix):
            kinds[name] += not open_widths
            open_widths.append(matrix.width)
            try:
                return original(matrix)
            finally:
                open_widths.pop()

        return counted

    for name in ("howell_form", "annihilator_rows"):
        original = getattr(linalg, name)
        patched = request(name, original)
        for module in list(sys.modules.values()):
            owner = getattr(module, "__name__", "")
            if owner.startswith("groupcodes") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, patched)
    cached = linalg._howell_cached

    def answered(*args):
        rows = cached(*args)
        answers.append((open_widths[:1], {len(row) for row in rows}))
        return rows

    monkeypatch.setattr(linalg, "_howell_cached", answered)
    cached.cache_clear()
    run_pool("convolutional")
    assert kinds["howell_form"] and kinds["annihilator_rows"]
    assert answers and all(outer and widths <= set(outer) for outer, widths in answers)
