"""Observability of block codes and the control/observe duality checks.

Observability windows are closed intervals [k, k+L] of L+1 symbols, kept in
the classical convention; controllability gaps stay half-open.  Reports
print both conventions to avoid misreading.

The observable supercode is the intersection of the consistency sets: the
union with the code collapses to that intersection at block scale because
the code is contained in every consistency set.  It is built as the dual of
the sum of their annihilators, so "the supercode is the code" reads
|sum| = |C-perp|; no intersection is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .codes import (
    BlockCode,
    join,
    window_annihilator,
    window_internal,
    window_projection,
    zero_code,
)
from .control import control_profile, controllable_subcode
from .duality import dual_block_code, pairs_to_zero
from .linalg import _trusted, smith_invariants

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
    proj = window_projection(code, k, b)
    sl = code.space.flat_slice(k, b)
    moduli = code.space.flat_moduli
    width = len(moduli)

    def units(columns):
        nontrivial = [j for j in columns if moduli[j] > 1]
        return [(0,) * j + (1,) + (0,) * (width - 1 - j) for j in nontrivial]

    before, after = (0,) * sl.start, (0,) * (width - sl.stop)
    rows = units(range(sl.start))
    rows += [before + row + after for row in proj.basis.rows]
    rows += units(range(sl.stop, width))
    return BlockCode.from_howell(code.space, rows)


def _annihilator_sum(code: BlockCode, lengths: Sequence[int]) -> BlockCode:
    """The annihilator of the meet of the consistency sets on [k, k+L_k]:
    the sum of their annihilators (``window_annihilator``, since a
    character kills the preimage of a window projection exactly when it
    vanishes outside the window and annihilates the projection)."""
    N = code.space.horizon
    rows = tuple(
        row
        for k, L in enumerate(lengths)
        for row in window_annihilator(code, k, min(k + L + 1, N)).basis.rows
    )
    return BlockCode(code.space, _trusted(code.basis.moduli, rows))


def observable_supercode(code: BlockCode, L: int) -> BlockCode:
    """Intersection over all positions of the window-L consistency sets,
    built as the dual of the sum of their annihilators."""
    if L < 0:
        raise ValueError("window length must be nonnegative")
    return dual_block_code(_annihilator_sum(code, [L] * code.space.horizon))


def _observe_index(code: BlockCode) -> int:
    """Minimal uniform window L whose observable supercode is the code.

    Each annihilator lies in C-perp, so their sum is C-perp exactly when it
    has |G| / |C| elements.  At L = N - 1 the first window is the whole
    horizon and its annihilator is C-perp, so the search ends there.
    """
    target = code.space.cardinality // code.cardinality
    N = code.space.horizon
    return next(L for L in range(N) if _annihilator_sum(code, [L] * N).cardinality == target)


def observe_profile(code: BlockCode) -> ObserveProfile:
    """Minimal uniform window with supercode equal to the code, plus
    per-position minima.

    The per-position lengths start from the uniform index and are then
    shrunk greedily left to right while the intersection of consistency
    sets still equals the code, so decreasing any entry strictly enlarges
    the intersection.  The intersection equals the code exactly when the
    sum of the annihilators has |C-perp| elements (see ``_observe_index``).
    While position k is tried, the positions before it are fixed and the
    ones after it still sit at the index, so each trial adds the
    annihilator at k to one precomputed sum of the rest.
    """
    N = code.space.horizon
    index = _observe_index(code)
    target = code.space.cardinality // code.cardinality

    def ann(k: int, L: int) -> BlockCode:
        return window_annihilator(code, k, min(k + L + 1, N))

    # after[k] sums the annihilators at positions k..N-1.
    after = [zero_code(code.space)] * (N + 1)
    for k in range(N - 1, 0, -1):
        after[k] = join(after[k + 1], ann(k, index))
    before = zero_code(code.space)
    lengths = [index] * N
    for k in range(N):
        rest = join(before, after[k + 1])
        while lengths[k] > 0 and join(rest, ann(k, lengths[k] - 1)).cardinality == target:
            lengths[k] -= 1
        before = join(before, ann(k, lengths[k]))
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


def check_control_observe_duality(code: BlockCode) -> DualityReport:
    """Window-by-window duality evidence for a block code.

    Three families are verified exactly, each by counting and pairing
    rather than by building a subgroup only to compare it (X = Y-perp
    exactly when X and Y pair to zero and |X| · |Y| = |G|):
    - for every window [a, b), the dual of the internally supported part of
      the code equals the consistency set of the dual code on that window:
      the part pairs to zero with the set and their orders multiply to |G|;
    - the reachable sets grow with L while the dual consistency sets shrink;
    - for every gap L, the dual of the gap-L controllable subcode equals the
      window-L observable supercode of the dual code, and their invariant
      factors agree (computed once per distinct subgroup, so once when
      the two are equal).

    The code's side of each identity is read off its window table (internal
    parts, ``controllable_subcode``, ``control_profile``); the dual's side
    is built from the dual's window projections (``consistency_set``,
    ``observable_supercode``) without that table.  The reach chain is the
    nesting of the prefix codes: C_k(L) = Z_k + C ∩ [0, k+L), so
    C ∩ [0, b) ⊆ C ∩ [0, b+1) for every b gives C_k(L) ⊆ C_k(L+1).  The
    other chain reads one table of the dual's consistency sets on [k, k+L],
    L = 0..N (entries repeat once the window reaches the horizon).  The
    control indices come from ``control_profile`` of the code and of the
    dual, the observe index of the code from its own annihilator sums and
    that of the dual from the matched supercodes, so ``indices_match``
    stays evidence.
    """
    dual = dual_block_code(code)
    N = code.space.horizon
    cons = []
    for k in range(N):
        cons_k = [consistency_set(dual, k, L) for L in range(N - k)]
        cons.append(cons_k + cons_k[-1:] * (k + 1))
    total = code.space.cardinality
    window_checks = []
    for a in range(N):
        for b in range(a + 1, N + 1):
            inner = window_internal(code, a, b)
            pulled = cons[a][b - 1 - a]
            sl = code.space.flat_slice(a, b)
            ok = inner.cardinality * pulled.cardinality == total and pairs_to_zero(
                [row[sl] for row in inner.basis.rows],
                [row[sl] for row in pulled.basis.rows],
                code.space.flat_moduli[sl],
            )
            window_checks.append(WindowDualityCheck(a, b, ok))
    chain_ok = all(
        code.prefix_code(b).is_subcode_of(code.prefix_code(b + 1)) for b in range(N)
    ) and all(
        cons[k][L + 1].is_subcode_of(cons[k][L]) for k in range(N) for L in range(N)
    )
    matched, supercodes, factors = [], [], {}

    def factors_of(c: BlockCode) -> tuple[int, ...]:
        # Once L reaches the control index every subcode is C, so the same
        # subgroups recur; their invariant factors are computed once.
        if c.basis.rows not in factors:
            factors[c.basis.rows] = smith_invariants(c.basis)
        return factors[c.basis.rows]

    for L in range(N):
        sub_dual = dual_block_code(controllable_subcode(code, L))
        sup = observable_supercode(dual, L)
        supercodes.append(sup)
        matched.append(
            MatchedParameterCheck(
                gap=L,
                subcode_dual_factors=factors_of(sub_dual),
                supercode_factors=factors_of(sup),
                equal_as_sets=sub_dual == sup,
            )
        )
    return DualityReport(
        window_checks=tuple(window_checks),
        chain_ok=chain_ok,
        matched_checks=tuple(matched),
        control_index=control_profile(code).index,
        dual_observe_index=supercodes.index(dual),
        observe_index=_observe_index(code),
        dual_control_index=control_profile(dual).index,
    )
