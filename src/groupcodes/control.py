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

import functools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .codes import BlockCode, _internal
from .groups import FiniteAbelianGroup
from .linalg import _howell_record, _reduce_vector, _trusted, head_solve

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
    and conversely c minus its witness is supported inside [0, k+L).  Built
    as that sum: one Howell form of the rows of C ∩ [k, N) and
    C ∩ [0, k+L), each read off the record of the prefix at its end
    (``codes._internal``); no window code is built.
    """
    N = code.space.horizon
    if not 0 <= k < N or L < 0:
        raise ValueError(f"bad reachability parameters k={k}, L={L}")
    rows = _internal(code, k, N) + _internal(code, 0, min(k + L, N))
    return BlockCode(code.space, _trusted(code.basis.moduli, rows))


def control_profile(code: BlockCode) -> ControlProfile:
    """Minimal L at each position with reachable_set(code, k, L) = code.

    Decided by counting (``codes._gap_lengths``): every order is read off
    the code's prefix table (``codes._PrefixTable.order``); no reachable set
    is built.  The lengths are counted once per code
    (``BlockCode._control_lengths``).
    """
    return ControlProfile(code._control_lengths)


def controllable_subcode(code: BlockCode, L: int) -> BlockCode:
    """Intersection over all positions of the reachable sets at gap L.

    Equals the sum of the window-supported subgroups of width L+1; the
    containment of each window subgroup in every C_k(L) gives one direction
    and greedy peeling of leading coordinates gives the other.  Read off
    the code's chain of these sums, a tuple cs_0 ⊆ ... ⊆ cs_t = C kept on
    the code and climbed once (``codes._subcode_chain``): the rows of the
    windows C ∩ [k, k+L+1), each read off the prefix-table entry of its
    end (``codes._internal``), go into one Howell kernel state gap by gap,
    each distinct row once, up to the first gap whose sum is the code.
    Gap L reads entry min(L, t), so from t on it is the code itself, and
    equal sums are one object.  No window code is built.
    """
    if L < 0:
        raise ValueError(f"bad gap length L={L}")
    chain = code._subcodes
    return chain[min(L, len(chain) - 1)]


@dataclass(frozen=True)
class Chunk:
    """A finitely supported codeword with its declared support window."""

    word: tuple[int, ...]
    start: int
    stop: int


def _window_solution(
    code: BlockCode, stop: int, position: int, target_symbol: Sequence[int]
) -> Optional[tuple[int, ...]]:
    """A word of C ∩ [position, stop) matching ``target_symbol`` at
    ``position``.

    The window's rows are those of the prefix entry C ∩ [0, stop) with
    pivot at or after the position (``codes._internal``), a weak Howell
    form.  They vanish before it, so ``head_solve`` on them without those
    columns gives a particular word.  The rows with pivot after the
    position span the words vanishing there; reducing by them leaves each
    pivot entry below its pivot d, so two results differ by a span
    element led by a multiple of d below d: the canonical representative.
    """
    sl = code.space.flat_slice(position, position + 1)
    moduli = code.space.flat_moduli
    rows, columns, _ = code._prefix(stop)
    i = bisect_left(columns, sl.start)
    tail = _trusted(moduli[sl.start :], tuple(row[sl.start :] for row in rows[i:]))
    rest = head_solve(tail, sl.stop - sl.start, target_symbol)
    if rest is None:
        return None
    word = (0,) * sl.start + tuple(target_symbol) + rest
    j = bisect_left(columns, sl.stop)
    return _reduce_vector(rows[j:], columns[j:], moduli, word)


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
            chunk_word = _window_solution(code, stop, k, target)
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
    searched.  With P = C ∩ [0, n), S = C ∩ [l, N), M = C ∩ [l, n) and π
    the projection onto [0, n), every codeword splits at (l, n) exactly
    when |P|·|S| = |C|·|M| (the plain split C = P + S) and
    |t·P|·|π(t·S)| = |t·M|·|π(t·C)| at every level t = p^a with
    1 <= a < v_p(exponent) (``_order_splits`` has the proof).  So no
    codeword is enumerated, and the code may be of any size.  The plain
    split is C_l(n - l) = C, which holds exactly when n - l >= L_l
    (``control_profile``), so the search at l < N starts at n = l + L_l;
    at l = N only n = N is left.  A squarefree exponent has no level.
    """
    N = code.space.horizon
    group = FiniteAbelianGroup(code.space.flat_moduli)
    exponent, levels = group.exponent, []
    for p in group.primes():
        q = p
        while exponent % (q * p) == 0:
            levels.append(q)
            q *= p
    lengths = code._control_lengths
    form = functools.cache(functools.partial(_scaled_form, code))
    bounds = []
    for l in range(N + 1):
        n = l + lengths[l] if l < N else N
        if levels:
            while n < N and not _order_splits(code, l, n, levels, form):
                n += 1
        bounds.append(n)
    return OrderProfile(tuple(bounds))


def _scaled_form(
    code: BlockCode, a: int, b: int, t: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Pivot columns, counted from offset(a), and running pivot-order
    products from 1 of t·(C ∩ [a, b)), whose rows (``codes._internal``)
    are cut to [offset(a), offset(b)) first, off one record
    (``linalg._howell_record``): only they leave it."""
    lo, hi = code.space.offsets()[a], code.space.offsets()[b]
    moduli = code.space.flat_moduli[lo:hi]
    rows = (tuple(t * e % m for e, m in zip(r[lo:hi], moduli)) for r in _internal(code, a, b))
    return _howell_record(_trusted(moduli, tuple(rows)))[1:]


def _order_splits(
    code: BlockCode, l: int, n: int, levels: Sequence[int], form: Callable
) -> bool:
    """Whether every codeword order-splits at (l, n), l <= n <= N, decided
    by counting at ``levels``; ``form`` is ``_scaled_form`` on the code,
    memoized by ``order_profile``.

    Let P = C ∩ [0, n), S = C ∩ [l, N), M = P ∩ S = C ∩ [l, n) and π the
    projection onto [0, n).  P + S ⊆ C has order |P|·|S| / |M|, so the
    plain split C = P + S holds exactly when |P|·|S| = |C|·|M|.

    Given it, a prefix part of c is an x in P with c - x in S.  One of
    order at most ord(π(c)) exists exactly when one of order dividing
    ord(π(c)) does: the p-component u·c of c is a codeword, and the p-part
    u·x of a prefix part x of u·c of order at most ord(π(u·c)) is again
    one (u is idempotent modulo the exponent), of order dividing that
    p-power; the sum over p of these p-parts is a prefix part of c.  With
    O_t = {c in C : t·π(c) = 0} and X[t] = {x in X : t·x = 0}, the order
    condition is O_t ⊆ P[t] + S at every divisor t of the exponent.
    P[t] ⊆ O_t, so that is |O_t| / |O_t ∩ S| = |P[t]| / |P[t] ∩ S|.
    O_t and O_t ∩ S are the kernels of c -> π(t·c) on C and on S, P[t] is
    that of x -> t·x on P, and P[t] ∩ S = M[t]; so |O_t| = |C| / |π(t·C)|,
    |O_t ∩ S| = |S| / |π(t·S)|, |P[t]| = |P| / |t·P| and
    |M[t]| = |M| / |t·M|.  Cancelling with |C|·|M| = |P|·|S| leaves
    |t·P|·|π(t·S)| = |t·M|·|π(t·C)|.  Each order is read off the Howell
    form of the scaled rows (``_scaled_form``).  The rows of a Howell form
    with pivot before offset(n), cut there, are a Howell form of its
    projection with the same pivot orders (as ``codes._projection`` reads
    them), so t·C and t·S give |π(t·C)| and |π(t·S)| for every n.

    With M = 0 the condition holds and nothing is read: an x = π(s) in P,
    s in S, has s - x in C ∩ [n, N) ⊆ S, so P ∩ π(S) ⊆ M = 0,
    π(t·C) = t·P + π(t·S) is direct, and |t·M| = 1.

    Only the levels t = p^a, 1 <= a < v_p(exponent), need testing.  Each
    CRT idempotent maps O_t, P[t] and S into themselves, so the condition
    at t splits over the p-components C_p.  On C_p, t / p^(a_p) is a unit
    for t = ∏ p^(a_p), so the condition at t there is the condition at
    p^(a_p); and the condition at p^a holds on C_q, q ≠ p, where p^a is a
    unit and O_(p^a) ∩ C_q lies in S.  Levels a = 0 and a = v_p hold on C_p
    trivially (O_1 = C ∩ [n, N); p^(v_p) kills C_p).  So a squarefree
    exponent needs no level.
    """
    N = code.space.horizon
    order = code._prefixes.order
    prefix, suffix, meet = order(0, n), order(l, N), order(l, n)
    if prefix * suffix != code.cardinality * meet:
        return False
    offsets = code.space.offsets()

    def projected(a: int, t: int) -> int:
        columns, products = form(a, N, t)
        return products[bisect_left(columns, offsets[n] - offsets[a])]

    return meet == 1 or all(
        form(0, n, t)[1][-1] * projected(l, t) == form(l, n, t)[1][-1] * projected(0, t)
        for t in levels
    )
