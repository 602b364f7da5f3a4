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
from dataclasses import dataclass

from .codes import (
    BlockCode,
    _annihilator_order,
    _internal,
    _projection,
    invariant_factors_of_code,
)
from .control import _gap_lengths, control_profile, controllable_subcode
from .duality import dual_block_code, is_annihilator
from .linalg import _reduce_vector

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

    def is_l_observable(self, L: int) -> bool:
        return L >= self.index


def consistency_set(code: BlockCode, k: int, L: int) -> BlockCode:
    """Sequences agreeing with some codeword on the window [k, k+L].

    The preimage of the window projection of the code; a supergroup of the
    code in the same ambient space.  The closed window is clipped to the
    horizon.  Its Howell basis is written directly: the projection's Howell
    rows padded with zeros between unit rows for the coordinates outside the
    window (modulus above 1); the blocks share no column.
    """
    N = code.space.horizon
    if not 0 <= k < N or L < 0:
        raise ValueError(f"bad consistency parameters k={k}, L={L}")
    b = min(k + L + 1, N)
    sl = code.space.flat_slice(k, b)
    moduli = code.space.flat_moduli
    width = len(moduli)

    def units(columns):
        return [(0,) * j + (1,) + (0,) * (width - 1 - j) for j in columns if moduli[j] > 1]

    before, after = (0,) * sl.start, (0,) * (width - sl.stop)
    rows = units(range(sl.start))
    rows += [before + row + after for row in _projection(code, k, b)[0]]
    rows += units(range(sl.stop, width))
    return BlockCode.from_howell(code.space, rows)


def observable_supercode(code: BlockCode, L: int) -> BlockCode:
    """Intersection over all positions of the window-L consistency sets,
    built as the dual of the sum of their annihilators.

    A character kills the preimage of a window projection exactly when it
    vanishes outside the window and annihilates the projection, so the
    annihilator of the set on [k, k+L] is T ∩ [k, k+L+1), clipped to the
    horizon, T = C-perp the local dual.  Their sum is
    ``controllable_subcode(T, L)``, read off T's prefix table.
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
    orders |D ∩ [a, b)| = |G_[a,b)| / |proj_[a,b) C| read off the code's
    suffix records (``codes._annihilator_order``); no sum, dual or
    kernel is built.
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
    is read once, off the suffix records; no sum or kernel is built.
    """
    N = code.space.horizon
    index = _observe_index(code)
    order = functools.cache(functools.partial(_annihilator_order, code))

    def holds(k: int, end: int) -> bool:
        return order(k, end) * order(k + 1, N) == order(k, N) * order(k + 1, end)

    lengths, end = [], 0
    for k in range(N):
        L = next(L for L in range(index + 1) if holds(k, max(end, min(k + L + 1, N))))
        lengths.append(L)
        end = max(end, min(k + L + 1, N))
    return ObserveProfile(tuple(lengths), index)


@dataclass(frozen=True)
class WindowDualityCheck:
    """Annihilator identity for one internal window [a, b)."""

    start: int
    stop: int
    ok: bool


@dataclass(frozen=True)
class MatchedParameterCheck:
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

    @property
    def ok(self) -> bool:
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
        for w in self.window_checks:
            one_based = f"[{w.start + 1},{w.stop}]"
            lines.append(
                f"  window [{w.start},{w.stop}) (1-based closed {one_based}): "
                f"dual of internal part equals dual-code consistency set: "
                f"{'yes' if w.ok else 'NO'}"
            )
        for m in self.matched_checks:
            lines.append(
                f"  gap {m.gap}: dual of controllable subcode vs observable "
                f"supercode of dual: factors {list(m.subcode_dual_factors)} / "
                f"{list(m.supercode_factors)}: "
                f"{'equal' if m.ok else 'MISMATCH'}"
            )
        lines.append(f"  verdict: {'pass' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _matched_duals(code: BlockCode, dual: BlockCode) -> tuple[list, list]:
    """The duals of the two matched sides of the duality report at each
    gap L = 0..N-1, ``dual`` being D = C-perp: of cs_L =
    ``controllable_subcode(code, L)`` and of S_L =
    ``controllable_subcode(T, L)``, T = ``dual._local_dual`` = D-perp, whose
    dual is ``observable_supercode(dual, L)``.  One routine climbs both:
    the side of a top is built until its Howell rows are the top's, and
    then repeats (``check_control_observe_duality`` gives the proof).  It
    runs once per distinct top object: with T = C both sides are one list,
    and only a T that is a code of its own climbs on its own tables.  Each
    distinct subgroup is dualized once, by its rows (the dual is a function
    of them), and C's dual is ``dual``."""
    N = code.space.horizon
    dualized = {code.basis.rows: dual}

    def duals_to_top(top: BlockCode) -> list:
        duals = []
        for L in range(N):
            x = controllable_subcode(top, L)
            rows = x.basis.rows
            if rows not in dualized:
                dualized[rows] = dual_block_code(x)
            duals.append(dualized[rows])
            if rows == top.basis.rows:
                return duals + duals[-1:] * (N - L - 1)
        return duals

    sub_duals, top = duals_to_top(code), dual._local_dual
    return sub_duals, sub_duals if top is code else duals_to_top(top)


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
      factors agree (computed once per distinct subgroup); with
      C-perp-perp = C this is a check of biduality (see below).

    The consistency set of the dual D on [a, b) is the preimage of
    P = proj_[a,b) D, so its order is |G| · |P| / |G_[a,b)| and its Howell
    rows restricted to [a, b) are those of P (the unit rows outside the
    window vanish on it).  The window check therefore reads
    |C ∩ [a, b)| · |P| = |G_[a,b)| and pairs the internal part's window
    columns with P's rows; no consistency set is built.  Of the two
    chains, the reach chain is the nesting of the prefix entries:
    C_k(L) = Z_k + C ∩ [0, k+L), so C ∩ [0, b) ⊆ C ∩ [0, b+1) gives
    C_k(L) ⊆ C_k(L+1).  The consistency set on [k, b+1) lies in the one on
    [k, b) exactly when proj_[k,b+1) D, cut to [k, b), lies in proj_[k,b) D.
    Both containments read alike: each Howell row of the smaller side is
    zero, is a Howell row of the larger or reduces to zero against them,
    at the pivot columns the tables already hold (the prefix entry's, and
    the first ones of D's suffix record ``_suffix(k)``, whose cut rows are
    those of proj_[k,b) D), with no row rescanned.  Once the window
    reaches the horizon the sets repeat, so there is nothing more to test.
    Both chains hold by construction: the prefix table's entries are one
    sweep over one reversed Howell form, and every projection proj_[k,b) D
    is a cut of the one suffix Howell form proj_[k,N) D.  The checks stay,
    as evidence on those tables and their pivot columns.

    Every window is read as rows and an order straight off a table entry
    (``codes._internal`` off C's prefix table, ``codes._projection`` off
    D's suffix records), so the O(N^2) window and chain checks build no
    code and no space, and each order is a lookup of running pivot-order
    products.  Each of D's O(N) suffix records is one Howell form of its
    cut rows.

    Each matched side is built only until it reaches its top
    (``_matched_duals``).  The supercode of D at window L is the dual of
    the sum S_L of the annihilators T ∩ [k, k+L+1) of its consistency sets,
    T = ``dual._local_dual`` = D-perp (``observable_supercode``), and S_L
    is ``controllable_subcode(T, L)``.  So both sides are controllable
    subcodes of a top, C or T: sums of the windows top ∩ [k, k+L+1), which
    grow with L, so each side is a nondecreasing chain under its top, and
    at L = N - 1 its term at k = 0 is the top itself.  A nondecreasing
    chain under its top that meets the top stays there: once the Howell
    rows of a side equal its top's, the side is the same subgroup for
    every larger L, and its dual and invariant factors are reused.  A dual
    is a function of the Howell rows, so each distinct subgroup of either
    side is dualized once, and C's dual is D.

    T is one kernel of D's rows.  When they are C's rows (C-perp-perp = C),
    T is the code object itself (``BlockCode._local_dual``): the two sides
    are one list, climbed once on C's prefix table, and T's dual is D.
    The kernel is still taken and its rows compared, so sharing the side
    does not assume biduality: a kernel that is not C makes a code with
    tables of its own, and the supercode side then climbs to it.  So with
    T = C the matched lines check biduality only: the kernel rows of D
    are compared with C's.  Their invariant factors are counted once per
    distinct subgroup and printed.  A wrong entry of C's prefix table
    reaches both sides alike; that table is checked by the window lines:
    each counts and pairs the internal part C ∩ [a, b), off C's prefix
    table, against proj_[a,b) D, off the dual's suffix records.

    The control indices come from ``control_profile`` of the code and of
    the dual (the dual's own prefix table).  The observe index of the code
    is counted on the code's own suffix records (``_observe_index``),
    with no kernel, and that of the dual is the first matched supercode
    equal to the dual.  So each side of ``indices_match`` is a separate
    computation, and it stays evidence: the code's control index counts
    orders on C's prefix table where the dual's observe index sums its
    rows, and the code's observe index reads no table of D, where the
    dual's control index reads D's prefix table alone.
    """
    N = code.space.horizon
    dual = code._local_dual
    moduli = code.space.flat_moduli
    offsets = code.space.offsets()
    proj = {(a, b): _projection(dual, a, b) for a in range(N) for b in range(a + 1, N + 1)}
    window_checks = []
    for (a, b), (rows, order) in proj.items():
        inner, inner_order = _internal(code, a, b)
        lo, hi = offsets[a], offsets[b]
        ok = is_annihilator([row[lo:hi] for row in inner], inner_order, rows, order, moduli[lo:hi])
        window_checks.append(WindowDualityCheck(a, b, ok))

    def within(words, rows, columns, lo: int, hi: int) -> bool:
        # Each word over [lo, hi) is zero, is one of the Howell ``rows`` or
        # reduces to zero at ``columns``, their pivot columns as a table
        # holds them; zero proves membership even at wrong columns.
        window, known = moduli[lo:hi], {*rows, (0,) * (hi - lo)}
        return all(w in known or not any(_reduce_vector(rows, columns, window, w)) for w in words)

    def prefix_nested(b: int) -> bool:
        # C ∩ [0, b) ⊆ C ∩ [0, b+1), on the prefix entries (shared when
        # the end takes in no row).
        inner, outer = code._prefix(b), code._prefix(b + 1)
        return inner is outer or within(inner[0], outer[0], outer[1], 0, len(moduli))

    def nested(k: int, b: int) -> bool:
        # proj_[k,b+1) D, cut to [k, b), lies in proj_[k,b) D, whose rows
        # are the first rows of proj_[k,N) D, cut, with their pivot columns.
        width = offsets[b] - offsets[k]
        cuts = [row[:width] for row in proj[k, b + 1][0]]
        rows = proj[k, b][0]
        return within(cuts, rows, dual._suffix(k)[1][: len(rows)], offsets[k], offsets[b])

    chain_ok = all(prefix_nested(b) for b in range(N)) and all(
        nested(k, b) for k in range(N) for b in range(k + 1, N)
    )

    sub_duals, supercodes = _matched_duals(code, dual)
    factors = {}

    def factors_of(c: BlockCode) -> tuple[int, ...]:
        if c.basis.rows not in factors:
            factors[c.basis.rows] = invariant_factors_of_code(c)
        return factors[c.basis.rows]

    matched = tuple(
        MatchedParameterCheck(
            gap=L,
            subcode_dual_factors=factors_of(sub_dual),
            supercode_factors=factors_of(sup),
            equal_as_sets=sub_dual == sup,
        )
        for L, (sub_dual, sup) in enumerate(zip(sub_duals, supercodes))
    )
    return DualityReport(
        window_checks=tuple(window_checks),
        chain_ok=chain_ok,
        matched_checks=matched,
        control_index=control_profile(code).index,
        # N if no supercode is the dual, which only a broken table can
        # cause: the line of gap N - 1 then reads MISMATCH.
        dual_observe_index=next((L for L, c in enumerate(supercodes) if c == dual), N),
        observe_index=_observe_index(code),
        dual_control_index=control_profile(dual).index,
    )
