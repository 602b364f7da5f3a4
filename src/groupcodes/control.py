"""Reachability and controllability of block codes.

The reachable set C_k(L) collects the codewords whose tail beyond k+L is
matched by some codeword vanishing before k.  At finite horizon N every
tail constraint with k+L >= N is vacuous, so every block code has a finite
control profile; genuinely asymptotic verdicts live in the convolutional
module.

Two parametrizations of controllability coexist: the per-position gap
lengths L_k measured here, and the per-prefix order-split bounds n(l) of
the order profile.  Both are reported.  The plain split under n(l), with
no order condition, is C_l(n - l) = C, so it holds exactly from
n = l + L_l on, and ``order_profile`` starts its search there; n(l) can
still exceed l + L_l where the order condition fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .codes import BlockCode, _internal, join, window_internal
from .groups import FiniteAbelianGroup
from .linalg import (
    _reduce_vector,
    _trusted,
    contains_vector,
    head_kernel,
    head_solve,
    scale_rows,
)

__all__ = [
    "ControlProfile",
    "OrderProfile",
    "Chunk",
    "ProfileInsufficientError",
    "reachable_set",
    "control_profile",
    "controllable_subcode",
    "chunk_decompose",
    "order_profile",
]


class ProfileInsufficientError(ValueError):
    """Raised when a claimed control profile cannot drive the greedy split."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"control profile insufficient at position {position}")


@dataclass(frozen=True)
class ControlProfile:
    """Per-position minimal gap lengths L_k with C_k(L_k) = C."""

    lengths: tuple[int, ...]

    @property
    def index(self) -> int:
        """The controller memory: the least uniform L working everywhere."""
        return max(self.lengths) if self.lengths else 0

    def is_l_controllable(self, L: int) -> bool:
        return L >= self.index


@dataclass(frozen=True)
class OrderProfile:
    """Per-prefix minimal order-split bounds n(l) for l = 0..N."""

    bounds: tuple[int, ...]

    @property
    def margins(self) -> tuple[int, ...]:
        return tuple(n - l for l, n in enumerate(self.bounds))

    @property
    def uniform_margin(self) -> int:
        """Least d with n(l) <= l + d for every prefix length in horizon."""
        return max(self.margins)


def reachable_set(code: BlockCode, k: int, L: int) -> BlockCode:
    """C_k(L): codewords whose tail from k+L on extends a word vanishing before k.

    Equals Z_k + {codewords supported in [0, k+L)} where Z_k is the subgroup
    of codewords vanishing on [0, k): for c = z + u the witness is z itself,
    and conversely c minus its witness is supported inside [0, k+L).
    """
    N = code.space.horizon
    if not 0 <= k < N or L < 0:
        raise ValueError(f"bad reachability parameters k={k}, L={L}")
    suffix_supported = window_internal(code, k, N)
    prefix_supported = window_internal(code, 0, min(k + L, N))
    return join(suffix_supported, prefix_supported)


def _gap_lengths(horizon: int, order: Callable[[int, int], int]) -> tuple[int, ...]:
    """Minimal L at each position k with C_k(L) = C, for the code whose
    window orders |C ∩ [a, b)| ``order`` reads.

    C_k(L) = Z_k + (C ∩ [0, k+L)) lies in C, and the two summands meet in
    C ∩ [k, k+L), so C_k(L) = C exactly when
    |Z_k| · |C ∩ [0, k+L)| = |C| · |C ∩ [k, k+L)|.  At k + L = N both
    sides are |Z_k| · |C|, so the search stops there.

    The search at k + 1 starts at max(L_k - 1, 0), not at 0.  This is
    exact: Z_{k+1} lies in Z_k, so
    C_{k+1}(L') = Z_{k+1} + C ∩ [0, k+1+L') ⊆ Z_k + C ∩ [0, k+L'+1) = C_k(L'+1),
    and C_{k+1}(L') = C forces C_k(L'+1) = C, that is L_{k+1} >= L_k - 1;
    as C_k(L) grows with L, the first L passing from there is the least.
    So the window end e = k + L never moves back, and each prefix order
    |C ∩ [0, e)| is read once.  |C ∩ [k, k)| = 1 and |C ∩ [0, 0)| = 1,
    and at e = N the orders are |C| and |Z_k|: none of these is read.
    L_0 = 0 (Z_0 = C), so one call reads at most 4N - 3 orders: |C|, the
    N - 1 suffixes |Z_k|, at most N - 1 prefixes, and one window per try
    at k >= 1, of which N - 1 pass and at most N - 1 fail (a failure moves
    e up by one; e jumps from 0 to 1 at k = 1 and stops at N).
    """
    total = order(0, horizon)
    lengths, end, prefix = [], 0, 1  # prefix = |C ∩ [0, end)|
    for k in range(horizon):
        suffix = order(k, horizon) if k else total
        if end < k:
            end, prefix = k, order(0, k)
        while True:
            inner = 1 if end == k else suffix if end == horizon else order(k, end)
            if suffix * prefix == total * inner:
                break
            end += 1
            prefix = total if end == horizon else order(0, end)
        lengths.append(end - k)
    return tuple(lengths)


def control_profile(code: BlockCode) -> ControlProfile:
    """Minimal L at each position with reachable_set(code, k, L) = code.

    Decided by counting (``_gap_lengths``): every order is looked up in
    the window table (``codes._internal``); no reachable set is built.
    """
    return ControlProfile(_gap_lengths(code.space.horizon, lambda a, b: _internal(code, a, b)[1]))


def controllable_subcode(code: BlockCode, L: int) -> BlockCode:
    """Intersection over all positions of the reachable sets at gap L.

    Equals the sum of the window-supported subgroups of width L+1; the
    containment of each window subgroup in every C_k(L) gives one direction
    and greedy peeling of leading coordinates gives the other.  Built as
    that sum: one Howell form of the stacked Howell rows of the windows
    C ∩ [k, k+L+1), each read off the prefix code of its end
    (``codes._internal``); no window code is built.
    """
    if L < 0:
        raise ValueError(f"bad gap length L={L}")
    N = code.space.horizon
    rows = tuple(row for k in range(N) for row in _internal(code, k, min(k + L + 1, N))[0])
    return BlockCode(code.space, _trusted(code.basis.moduli, rows))


@dataclass(frozen=True)
class Chunk:
    """A finitely supported codeword with its declared support window."""

    word: tuple[int, ...]
    start: int
    stop: int


def _window_solution(
    code: BlockCode, inner: BlockCode, position: int, target_symbol: Sequence[int]
) -> Optional[tuple[int, ...]]:
    """A word of ``inner`` matching ``target_symbol`` at ``position``.

    ``inner`` vanishes before the position, so its Howell rows without
    those columns are a Howell form still: ``head_solve`` on them gives a
    particular word.  Its rows with pivot after the position span the words
    vanishing there; reducing by them picks the canonical representative.
    """
    sl = code.space.flat_slice(position, position + 1)
    moduli = code.space.flat_moduli
    rows = inner.basis.rows
    tail = _trusted(moduli[sl.start :], tuple(row[sl.start :] for row in rows))
    rest = head_solve(tail, sl.stop - sl.start, target_symbol)
    if rest is None:
        return None
    word = (0,) * sl.start + tuple(target_symbol) + rest
    later = tuple(row for row, (j, _) in zip(rows, inner.pivots()) if j >= sl.stop)
    return _reduce_vector(_trusted(moduli, later), word)


def chunk_decompose(
    code: BlockCode, word: Sequence[int], lengths: Sequence[int] | ControlProfile
) -> list[Chunk]:
    """Split a codeword into window-supported chunks, left to right.

    At each step the lowest-indexed nonzero coordinate k of the residual is
    cleared by a codeword supported in [k, k + 1 + L_{k+1}) that matches the
    residual symbol at k; a valid control profile guarantees such a chunk
    exists.  Raises ProfileInsufficientError at the first stuck position.
    """
    if isinstance(lengths, ControlProfile):
        lengths = lengths.lengths
    N = code.space.horizon
    if len(lengths) != N:
        raise ValueError("profile length must match the horizon")
    moduli = code.space.flat_moduli
    if len(word) != len(moduli):
        raise ValueError("word width mismatch")
    residual = tuple(int(e) % m for e, m in zip(word, moduli))
    if not code.contains(residual):
        raise ValueError("word is not a codeword")
    chunks: list[Chunk] = []
    while True:
        k, hi = code.space.support(residual)
        if k == hi:
            break
        bound = N if k + 1 >= N else min(k + 1 + lengths[k + 1], N)
        sl = code.space.flat_slice(k, k + 1)
        target = residual[sl]
        for stop in range(k + 1, bound + 1):
            chunk_word = _window_solution(code, window_internal(code, k, stop), k, target)
            if chunk_word is not None:
                break
        else:
            raise ProfileInsufficientError(k)
        chunks.append(Chunk(chunk_word, k, stop))
        residual = tuple(
            (a - b) % m for a, b, m in zip(residual, chunk_word, moduli)
        )
    return chunks


def order_profile(code: BlockCode) -> OrderProfile:
    """Minimal n(l) such that every codeword order-splits at prefix length l.

    A codeword c splits at (l, n) when c = c1 + c2 with c1 in the code
    supported in [0, n), c2 in the code supported in [l, N), and the order
    of c1 at most the order of the truncation c|[0, n) in the ambient
    product.  At n = N the split c1 = c always works, so only n < N is
    searched.  Each (l, n) is decided by linear algebra over the level
    subgroups of the code (see ``_order_split_everywhere``); no codeword is
    enumerated, so the code may be of any size.

    The order split needs the plain one, C = P + S with P = C ∩ [0, n) and
    S = C ∩ [l, N).  That is C_l(n - l) = Z_l + C ∩ [0, n) = C, which
    holds exactly when n - l >= L_l (``control_profile``), so the search at
    l < N starts at n = l + L_l; at l = N only n = N is left.  The split
    graph is built only where the exponent has a level to test
    (``_order_split_everywhere``).
    """
    N = code.space.horizon
    group = FiniteAbelianGroup(code.space.flat_moduli)
    exponent, levels = group.exponent, []
    for p in group.primes():
        q = p
        while exponent % (q * p) == 0:
            levels.append(q)
            q *= p
    lengths = control_profile(code).lengths
    bounds = []
    for l in range(N + 1):
        n = l + lengths[l] if l < N else N
        if levels and n < N:
            suffix = window_internal(code, l, N)
            while n < N and not _order_split_everywhere(
                code, code.prefix_code(n), suffix, n, levels
            ):
                n += 1
        bounds.append(n)
    return OrderProfile(tuple(bounds))


def _order_split_everywhere(
    code: BlockCode,
    prefix: BlockCode,
    suffix: BlockCode,
    n: int,
    levels: list[int],
) -> bool:
    """Whether every codeword order-splits at (l, n), suffix = C ∩ [l, N).

    Let P = prefix, S = suffix and M = P ∩ S.  Rows with pivot at or after
    the cut lie in C ∩ [n, N) ⊆ S, so C = P + S when each earlier Howell
    row r splits as r = φ(r) + s with φ(r) in P and s in S.  Splits of one
    word differ by elements of M, so φ extends to a homomorphism C → P / M
    whose cosets φ(c) + M hold the prefix parts of c.

    The order condition asks for a prefix part of order at most
    ord(c|[0, n)) for every c.  That is the same as one of order dividing
    ord(c|[0, n)): the p-component u·c of c is a codeword, and the p-part
    u·x of a prefix part x of u·c of order at most ord(u·c|[0, n)) is
    again one (u is idempotent modulo the exponent), of order dividing
    that p-power; the sum over p of these p-parts is a prefix part of c.
    A prefix part of order dividing t exists exactly when t·φ(c) lies in
    t·M, and c lies in O_t = {c : t·c|[0, n) = 0} exactly when
    ord(c|[0, n)) divides t.  So the condition reads t·φ(O_t) ⊆ t·M for
    every divisor t of the exponent; at each t, t·φ(O_t) is the head
    kernel of the rows [t·r|[0, n) | t·φ(r)].  One Howell form gives φ and
    M: the rows [p | p] and [s | 0] span {(x + y, x) : x in P, y in S}.

    Only the levels t = p^a, 1 <= a < v_p(exponent), are tested.  φ
    commutes with the CRT idempotents, so condition(t) splits over the
    p-components C_p.  On C_p, t / p^(a_p) is a unit for t = ∏ p^(a_p), so
    condition(t) there is condition(p^(a_p)); and condition(p^a) holds on
    C_q, q ≠ p, where p^a is a unit and O_(p^a) ∩ C_q lies in S.  Levels
    a = 0 and a = v_p hold on C_p trivially (O_1 = C ∩ [n, N); p^(v_p)
    kills C_p).  So a squarefree exponent needs no level.
    """
    moduli = code.space.flat_moduli
    width = len(moduli)
    cut = code.space.offsets()[n]
    zero = (0,) * width
    graph = _trusted(
        moduli + moduli,
        tuple(row + row for row in prefix.basis.rows)
        + tuple(row + zero for row in suffix.basis.rows),
    )
    split_rows = []
    for row, (pivot, _) in zip(code.basis.rows, code.pivots()):
        if pivot >= cut:
            break
        split = head_solve(graph, width, row)
        if split is None:
            # The row is itself a codeword without any split.
            return False
        split_rows.append(row[:cut] + split)
    split_graph = _trusted(moduli[:cut] + moduli, tuple(split_rows))
    meet = head_kernel(graph, width)
    for t in levels:
        level = head_kernel(scale_rows(split_graph, t), cut)
        scaled_meet = scale_rows(meet, t)
        if not all(contains_vector(scaled_meet, row) for row in level.rows):
            return False
    return True
