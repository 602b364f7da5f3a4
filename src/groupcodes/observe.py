"""Observability of block codes and the control/observe duality checks.

Observability windows are closed intervals [k, k+L] of L+1 symbols, kept in
the classical convention; controllability gaps stay half-open.  Reports
print both conventions to avoid misreading.

The observable supercode is the intersection of the consistency sets: the
union with the code collapses to that intersection at block scale because
the code is contained in every consistency set.  The annihilator of the
consistency set on [k, k+L] is C-perp ∩ [k, k+L+1), so the sum of the
annihilators is ``controllable_subcode(C-perp, L)``, and the supercode is
its dual: observability of a code is controllability of its dual, summed
by the one window-sum routine.  "The supercode is the code" reads
|sum| = |C-perp|; no intersection is computed.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, count
from math import lcm
from typing import NamedTuple, Sequence

from .codes import (
    BlockCode,
    _cached,
    _annihilator_order,
    _canonical_projection,
    _gap_lengths,
    _unit_rows,
    invariant_factors_of_code,
)
from .control import control_profile, controllable_subcode
from .duality import dual_block_code
from .linalg import Entry, Vector, _reduce_vector

__all__ = [
    "ObserveProfile",
    "consistency_set",
    "observable_supercode",
    "observe_profile",
    "check_control_observe_duality",
    "DualityReport",
]


@dataclass(frozen=True)
class ObserveProfile:
    """Per-position minimal closed-window lengths and the uniform index."""

    lengths: tuple[int, ...]
    index: int


def consistency_set(code: BlockCode, k: int, L: int) -> BlockCode:
    """Sequences agreeing with some codeword on the window [k, k+L].

    The preimage of the window projection of the code; a supergroup of the
    code in the same ambient space.  The closed window is clipped to the
    horizon.  Its Howell basis is written directly: the projection's Howell
    rows (``codes._canonical_projection``, as ``window_projection`` reads
    them: one Howell form per start) padded with zeros between the unit
    rows of the coordinates outside the window (``codes._unit_rows``); the
    blocks share no column.
    """
    N = code.space.horizon
    if not 0 <= k < N or L < 0:
        raise ValueError(f"bad consistency parameters k={k}, L={L}")
    b = min(k + L + 1, N)
    sl = code.space.flat_slice(k, b)
    moduli = code.space.flat_moduli
    width = len(moduli)
    before, after = (0,) * sl.start, (0,) * (width - sl.stop)
    rows = _unit_rows(moduli, range(sl.start))
    rows += [before + row + after for row in _canonical_projection(code, k, b)]
    rows += _unit_rows(moduli, range(sl.stop, width))
    return BlockCode.from_howell(code.space, rows)


def observable_supercode(code: BlockCode, L: int) -> BlockCode:
    """Intersection over all positions of the window-L consistency sets,
    built as the dual of the sum of their annihilators.

    A character kills the preimage of a window projection exactly when it
    vanishes outside the window and annihilates the projection, so the
    annihilator of the set on [k, k+L] is T ∩ [k, k+L+1), clipped to the
    horizon, T = C-perp the local dual.  Their sum is
    ``controllable_subcode(T, L)``, read off T's chain of sums.
    """
    if L < 0:
        raise ValueError("window length must be nonnegative")
    return dual_block_code(controllable_subcode(code._local_dual, L))


def _observe_index(code: BlockCode) -> int:
    """Minimal uniform window L whose observable supercode is the code.

    Write D = C-perp.  The supercode at L is C exactly when the sum of the
    annihilators of its consistency sets is D; those annihilators are the
    windows D ∩ [k, k+L+1), clipped to the horizon, and their sum is
    ``controllable_subcode(D, L)``, the meet over k of the reachable sets
    D_k(L).  Each D_k(L) lies in D and grows with L (the reach chain of
    ``check_control_observe_duality``), so the meet is D exactly when
    L >= L_k(D) at every k: the index is the control index of D.  It is
    counted as ``control_profile`` counts it (``_gap_lengths``), on the
    orders |D ∩ [a, b)| = |G_[a,b)| / |proj_[a,b) C| read off the pivot
    orders of the code's suffix records (``codes._annihilator_order``,
    one trimming sweep, ``BlockCode._suffix``); no sum, dual or kernel is
    built.
    """
    return max(_gap_lengths(code.space.horizon, functools.partial(_annihilator_order, code)))


def observe_profile(code: BlockCode) -> ObserveProfile:
    """Minimal uniform window with supercode equal to the code, plus
    per-position minima.

    The lengths start from the uniform index and are shrunk greedily left
    to right while the meet of the consistency sets is still the code,
    that is while the windows W_j = D ∩ [j, b_j), b_j = min(j + L_j + 1, N),
    sum to D = C-perp (``_observe_index``).  With B_k = max_{j<=k} b_j, a
    window with b_j < B_j lies in an earlier one, so raising each end to
    B_j keeps the sum; peeling the raised windows from the left (their
    ends never decrease) shows they sum to D exactly when, at every k,
    |D ∩ [k, B_k)| · |D ∩ [k+1, N)| = |D ∩ [k, N)| · |D ∩ [k+1, B_k)|.
    That condition grows with B_k and reads no other end.  While k is
    tried, the later positions sit at the index, where their conditions
    already hold, so the least length at k is the least L whose end
    max(B_{k-1}, min(k + L + 1, N)) meets the condition at k.  Each order
    is a lookup in the suffix records; no sum or kernel is built.
    """
    N = code.space.horizon
    index = _observe_index(code)
    order = functools.partial(_annihilator_order, code)

    def holds(k: int, end: int) -> bool:
        return order(k, end) * order(k + 1, N) == order(k, N) * order(k + 1, end)

    lengths, end = [], 0
    for k in range(N):
        L = next(L for L in range(index + 1) if holds(k, max(end, min(k + L + 1, N))))
        lengths.append(L)
        end = max(end, min(k + L + 1, N))
    return ObserveProfile(tuple(lengths), index)


class WindowDualityCheck(NamedTuple):
    """Annihilator identity for one internal window [a, b).  A named
    tuple, as a report holds N(N+1)/2 of them (``_duality_report`` builds
    them)."""

    start: int
    stop: int
    ok: bool


class MatchedParameterCheck(NamedTuple):
    """Dual of the gap-L controllable subcode against the window-L
    observable supercode of the dual code."""

    gap: int
    subcode_dual_factors: tuple[int, ...]
    supercode_factors: tuple[int, ...]
    equal_as_sets: bool

    @property
    def ok(self) -> bool:
        return (
            self.equal_as_sets
            and self.subcode_dual_factors == self.supercode_factors
        )


@dataclass(frozen=True)
class DualityReport:
    """Evidence that controllability of a code and observability of its dual
    are two views of one structure."""

    window_checks: tuple[WindowDualityCheck, ...]
    chain_ok: bool
    matched_checks: tuple[MatchedParameterCheck, ...]
    control_index: int
    dual_observe_index: int
    observe_index: int
    dual_control_index: int

    @_cached
    def ok(self) -> bool:
        """The verdict, read once per report: the chain and every window
        and matched check."""
        return (
            self.chain_ok
            and all(w.ok for w in self.window_checks)
            and all(m.ok for m in self.matched_checks)
        )

    @property
    def indices_match(self) -> bool:
        """Diagnostic only: index equality is observed, not asserted."""
        return (
            self.control_index == self.dual_observe_index
            and self.observe_index == self.dual_control_index
        )

    def render(self) -> str:
        lines = [
            "control/observe duality report",
            f"  control index of code:        {self.control_index}"
            f"  (gaps [k, k+L), 0-based)",
            f"  observe index of dual code:   {self.dual_observe_index}"
            f"  (windows [k, k+L] closed, {self.dual_observe_index + 1} symbols)",
            f"  observe index of code:        {self.observe_index}",
            f"  control index of dual code:   {self.dual_control_index}",
            f"  reachability chains monotone: {'yes' if self.chain_ok else 'NO'}",
        ]
        lines += [
            f"  window [{a},{b}) (1-based closed [{a + 1},{b}]): dual of internal part "
            f"equals dual-code consistency set: {'yes' if ok else 'NO'}"
            for a, b, ok in self.window_checks
        ]
        for m in self.matched_checks:
            lines.append(
                f"  gap {m.gap}: dual of controllable subcode vs observable "
                f"supercode of dual: factors {list(m.subcode_dual_factors)} / "
                f"{list(m.supercode_factors)}: "
                f"{'equal' if m.ok else 'MISMATCH'}"
            )
        lines.append(f"  verdict: {'pass' if self.ok else 'FAIL'}")
        return "\n".join(lines)


# A report's values are built from plain tuples by ``tuple.__new__``, with
# no Python-level ``__new__`` or ``__init__`` run per value.
_window_check = functools.partial(tuple.__new__, WindowDualityCheck)
_matched_check = functools.partial(tuple.__new__, MatchedParameterCheck)


def _duality_report(
    windows: Sequence[tuple[int, int, bool]],
    chain_ok: bool,
    matched: Sequence[tuple[int, tuple[int, ...], tuple[int, ...], bool]],
    **indices: int,
) -> DualityReport:
    """The duality report's values: a ``WindowDualityCheck`` per (start,
    stop, ok), a ``MatchedParameterCheck`` per (gap, factors of the dual of
    the subcode, factors of the supercode, equal as sets), and the four
    indices by name."""
    return DualityReport(
        window_checks=tuple(map(_window_check, windows)),
        chain_ok=chain_ok,
        matched_checks=tuple(map(_matched_check, matched)),
        **indices,
    )


def _matched_duals(code: BlockCode, dual: BlockCode) -> tuple[list, list]:
    """The duals of the two matched sides of the duality report at each
    gap L = 0..N-1, ``dual`` being D = C-perp: of cs_L =
    ``controllable_subcode(code, L)`` and of S_L =
    ``controllable_subcode(T, L)``, T = ``dual._local_dual`` = D-perp, whose
    dual is ``observable_supercode(dual, L)``.  Each side is read gap by
    gap off its top's kept chain of sums (``codes._subcode_chain``) until
    it is the top object itself, and then repeats
    (``check_control_observe_duality`` gives the proof), once per distinct
    top object: with T = C both sides are one list.  Each object is
    dualized by ``dual_block_code``, which keeps the dual on it, and the
    chain holds one object per distinct subgroup, so each distinct
    subgroup is dualized once; C's dual is ``dual``."""
    N = code.space.horizon

    def duals_to_top(top: BlockCode) -> list:
        duals = []
        for L in range(N):
            x = controllable_subcode(top, L)
            duals.append(dual_block_code(x))
            if x is top:
                break
        return duals + duals[-1:] * (N - len(duals))

    sub_duals, top = duals_to_top(code), dual._local_dual
    return sub_duals, sub_duals if top is code else duals_to_top(top)


def _start_windows(
    entries: list[Entry], record: Entry, offsets: tuple[int, ...], k: int
) -> list[tuple[tuple[Vector, ...], int, int, tuple[Vector, ...], int, int]]:
    """The windows [k, b), b = k+1..N, of start k as ``_window_walk`` reads
    them, one tuple per end: ``(xs, i, x_order, ys, j, y_order)``, where
    C ∩ [k, b) is spanned by ``xs[i:]``, the rows of prefix entry b with
    pivot at or after offset(k) (``codes._internal``'s read), and
    proj_[k,b) D by ``ys[:j]``, the rows of ``record`` = proj_[k,N) D with
    pivot before offset(b) (``codes._rows_before``'s read), uncut.  Both
    tables keep the space's own columns, so nothing is sliced: each window
    is two index bounds on rows of the tables."""
    lo = offsets[k]
    ys, y_columns, y_products = record
    reads = []
    for b in range(k + 1, len(offsets)):
        xs, x_columns, x_products = entries[b]
        i = bisect_left(x_columns, lo)
        j = bisect_left(y_columns, offsets[b])
        reads.append((xs, i, x_products[-1] // x_products[i], ys, j, y_products[j]))
    return reads


def _failing_pairs(
    entries: list[Entry], records: list[Entry], offsets: Sequence[int], moduli: Sequence[int]
) -> set[tuple[int, int]]:
    """The (C row, D row) pairs, by row identity, among those some window
    of ``_window_walk`` may hold, that do not pair to zero: each distinct
    row of D's suffix ``records`` indexed by its nonzero columns, in the
    order of its first start k, tagged offset(k), and each distinct C row
    of the prefix ``entries`` paired once at its pivot (``_row_pairings``)."""
    top = lcm(*moduli)
    weights = [top // m for m in moduli]
    column_rows, seen = {}, set()
    for k, (ys, _, _) in enumerate(records):
        for y in ys:
            if id(y) not in seen:
                seen.add(id(y))
                for c in compress(count(), y):
                    column_rows.setdefault(c, []).append((offsets[k], id(y), y[c]))
    failing, paired = set(), set()
    for xs, columns, _ in entries:
        for x, pivot in zip(xs, columns):
            if id(x) not in paired:
                paired.add(id(x))
                sums = _row_pairings(x, pivot, column_rows, weights)
                failing.update((id(x), y) for y, total in sums.items() if total % top)
    return failing


def _row_pairings(
    x: Vector, reach: int, column_rows: dict[int, list[tuple[int, int, int]]], weights: list[int]
) -> dict[int, int]:
    """sum_j x_j (top/m_j) y_j, keyed by id(y), for each D row y of
    ``column_rows`` that meets the C row x and has first start at or before
    ``reach``: one product per shared nonzero column, where no term vanishes."""
    sums: dict[int, int] = {}
    for c in compress(count(), x):
        v = x[c] * weights[c]
        for first, y, e in column_rows.get(c, ()):
            if first > reach:
                break
            sums[y] = sums.get(y, 0) + v * e
    return sums


def _window_walk(
    code: BlockCode, dual: BlockCode
) -> tuple[tuple[tuple[int, int, bool], ...], bool]:
    """The window checks, as (start, stop, ok) tuples in the order of the
    report's lines, and the chain verdict of the duality report of
    ``code``, ``dual`` being D = C-perp, by one walk per start k over D's
    suffix record proj_[k,N) D and each end's prefix entry, each read
    once (``_start_windows``).  Both tables are unfinished sweeps that
    keep the space's own columns.

    The consistency set of D on [a, b) is the preimage of P = proj_[a,b) D:
    its order is |G| · |P| / |G_[a,b)| and the rows of a weak Howell form
    of it restricted to [a, b) span P, so the window check reads
    |C ∩ [a, b)| · |P| = |G_[a,b)| and pairs the rows of C ∩ [a, b) with
    P's rows, the rows of the record with pivot before offset(b).

    The pairing is one pass per report (``_failing_pairs``), and a
    window's verdict is its order check and, only when that pass found a
    failing pair, that it holds none.  This is the verdict of pairing the
    window's own rows:
    - a pair's value does not depend on the window: a row of C ∩ [a, b)
      vanishes outside [a, b), so its pairing with a D row over the
      space's columns is its pairing over the window's;
    - every pair that some window [k, b) holds is paired: its C row has
      pivot at or after offset(k), and its D row is in the record of
      start k, so its first start is at or before k;
    - on a correct table every paired pair vanishes: the C row vanishes
      before the D row's first start s, and the D row is the projection
      on [s, N) of a word of C-perp, so the pairing is that of a word of
      C with a word of C-perp.  So the set is empty on every real report.

    The reach chain is the nesting C ∩ [0, b) ⊆ C ∩ [0, b+1) of the
    prefix entries, as C_k(L) = Z_k + C ∩ [0, k+L); the consistency set
    on [k, b+1) lies in the one on [k, b) exactly when proj_[k,b+1) D, cut
    before offset(b) (its rows vanish before offset(k)), lies in
    proj_[k,b) D.  Each row of the smaller side that is not a row of the
    larger reduces to zero at the pivot columns held; on a weak Howell
    form (a prefix entry or a suffix record) every member does.  So both
    chains reduce only the rows an end adds or changes: a row that is the
    same object in the next entry passes, and the rows of proj_[k,b) D
    are the first rows of proj_[k,b+1) D.  Both chains hold by
    construction: the nested chain checks the records' cut bookkeeping
    (the rows an end adds vanish before it), not duality, which the window
    checks test.
    """
    N, moduli, offsets = code.space.horizon, code.space.flat_moduli, code.space.offsets()
    products = code.space._moduli_products
    entries = [code._prefixes.entry(b) for b in range(N + 1)]
    records = [dual._suffix(k) for k in range(N)]
    failing = _failing_pairs(entries, records, offsets, moduli)

    def within(words, rows, columns, hi: int) -> bool:
        # A zero reduction proves membership even at wrong ``columns``.
        window, known = moduli[:hi], {*rows, (0,) * hi}
        return all(w in known or not any(_reduce_vector(rows, columns, window, w)) for w in words)

    def prefix_nested(b: int) -> bool:
        # C ∩ [0, b) ⊆ C ∩ [0, b+1): the rows of entry b that entry b + 1
        # does not hold reduce to zero against it.
        inner, outer = entries[b], entries[b + 1]
        if inner is outer or outer[0][: len(inner[0])] == inner[0]:
            return True
        held = set(map(id, outer[0]))
        changed = (row for row in inner[0] if id(row) not in held)
        return not any(any(_reduce_vector(outer[0], outer[1], moduli, w)) for w in changed)

    def nested(rows, n: int, outer, j: int, columns, hi: int) -> bool:
        # proj_[k,b+1) D = outer[:j], cut before hi = offset(b) (its rows
        # vanish before offset(k)), in proj_[k,b) D = rows[:n]: its first
        # rows that are rows[:n] (the same record grown, or equal rows) and
        # zero cuts pass.
        if outer is rows and n <= j:
            added = outer[n:j]
        else:
            added = outer[n:j] if outer[:j][:n] == rows[:n] else outer[:j]
        cuts = [cut for cut in (row[:hi] for row in added) if any(cut)]
        return not cuts or within(cuts, [row[:hi] for row in rows[:n]], columns[:n], hi)

    checks, chain_ok = [], all(prefix_nested(b) for b in range(N))
    for k, record in enumerate(records):
        lo = last_hi = offsets[k]
        last_ys, last_j = (), 0
        reads = _start_windows(entries, record, offsets, k)
        for b, (xs, i, x_order, ys, j, y_order) in enumerate(reads, k + 1):
            hi = offsets[b]
            ok = x_order * y_order == products[hi] // products[lo]
            if ok and failing:
                ok = not any((id(x), id(y)) in failing for x in xs[i:] for y in ys[:j])
            checks.append((k, b, ok))
            if b > k + 1 and not (ys is last_ys and last_j == j):
                chain_ok = chain_ok and nested(last_ys, last_j, ys, j, record[1], last_hi)
            last_ys, last_j, last_hi = ys, j, hi
    return tuple(checks), chain_ok


def check_control_observe_duality(code: BlockCode) -> DualityReport:
    """Window-by-window duality evidence for a block code.

    Three families are verified exactly, each by counting and pairing
    rather than by building a subgroup only to compare it (X = Y-perp
    exactly when X and Y pair to zero and |X| · |Y| = |G|):
    - for every window [a, b), the dual of the internally supported part of
      the code equals the consistency set of the dual code on that window;
    - the reachable sets grow with L while the dual consistency sets shrink;
    - for every gap L, the dual of the gap-L controllable subcode equals the
      window-L observable supercode of the dual code, and their invariant
      factors agree (counted once per code object, kept on it); with
      C-perp-perp = C this is a check of biduality (see below).

    The window and chain checks read rows and orders off C's prefix table
    and D's suffix records (weak Howell forms, never finished, whose rows
    keep their identity from end to end and from start to start): one
    pairing pass per report pairs each meeting (C row, D row) pair once,
    and one walk per start counts each window and reduces only the rows
    an end adds or changes (``_window_walk``, with the proofs); every
    window keeps the verdict of counting and pairing its own rows.

    Each matched side is read only until it reaches its top
    (``_matched_duals``).  The supercode of D at window L is the dual of
    the sum S_L of the annihilators T ∩ [k, k+L+1) of its consistency sets,
    T = ``dual._local_dual`` = D-perp (``observable_supercode``), and S_L
    is ``controllable_subcode(T, L)``.  So each side sums the windows
    top ∩ [k, k+L+1) of a top, C or T, which grow with L, and at L = N - 1
    it is the top: a nondecreasing chain under its top, kept on the top
    as one object per distinct sum, that is the top object once its
    Howell rows are the top's.  Each distinct subgroup is dualized once
    and its invariant factors counted once, both kept on its code object
    (``BlockCode._local_dual``, ``BlockCode._invariant_factors``); C's
    dual is D.

    T is one kernel of D's rows.  When they are C's rows (C-perp-perp = C),
    T is the code object itself (``BlockCode._local_dual``): the two sides
    are one list, climbed once on C's prefix table, and T's dual is D.
    The kernel is still taken and its rows compared; one that is not C
    makes a code with tables of its own, which the supercode side climbs
    to.  So with T = C the matched lines check biduality only (the kernel
    rows of D against C's) and print the invariant factors.  A wrong entry
    of C's prefix table reaches both sides alike; the window lines check
    that table against the dual's suffix records.

    The code's control index comes from ``control_profile`` on C's prefix
    table, and the dual's from ``control_profile`` on D's own prefix
    table, of D's reversed rows.  The code's observe index is counted on
    its own suffix records (``_observe_index``) and the dual's is the
    first matched supercode equal to the dual.  So each side of
    ``indices_match`` is a separate computation: C's control index counts
    orders where D's observe index sums rows, and C's observe index reads
    no table of D, where D's control index reads D's rows.
    """
    N = code.space.horizon
    dual = code._local_dual
    window_checks, chain_ok = _window_walk(code, dual)
    sub_duals, supercodes = _matched_duals(code, dual)
    matched = [
        (L, invariant_factors_of_code(sub_dual), invariant_factors_of_code(sup), sub_dual == sup)
        for L, (sub_dual, sup) in enumerate(zip(sub_duals, supercodes))
    ]
    return _duality_report(
        window_checks,
        chain_ok,
        matched,
        control_index=control_profile(code).index,
        # N if no supercode is the dual, which only a broken table can
        # cause: the line of gap N - 1 then reads MISMATCH.
        dual_observe_index=next((L for L, c in enumerate(supercodes) if c == dual), N),
        observe_index=_observe_index(code),
        dual_control_index=control_profile(dual).index,
    )
