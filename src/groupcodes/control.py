"""Reachability and controllability of block codes.

The reachable set C_k(L) collects the codewords whose tail beyond k+L is
matched by some codeword vanishing before k.  At finite horizon N every
tail constraint with k+L >= N is vacuous, so every block code has a finite
control profile; genuinely asymptotic verdicts live in the convolutional
module.

Two parametrizations of controllability coexist: the per-position gap
lengths L_k measured here, and the per-prefix order-split bounds n(l) of
the order profile.  They are interdefinable at finite horizon but are kept
separate; no identification of n(l) with L_k + k is asserted anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Optional, Sequence

from .codes import BlockCode, intersect, join, window_internal
from .groups import prime_factors
from .linalg import (
    contains_vector,
    coset_reduce,
    head_kernel,
    head_solve,
    homomorphism_graph,
    howell_form,
    projection_graph,
    scale_rows,
    vector_order,
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


def control_profile(code: BlockCode) -> ControlProfile:
    """Minimal L at each position with reachable_set(code, k, L) = code."""
    lengths = []
    for k in range(code.space.horizon):
        L = 0
        while reachable_set(code, k, L) != code:
            L += 1
        lengths.append(L)
    return ControlProfile(tuple(lengths))


def controllable_subcode(code: BlockCode, L: int) -> BlockCode:
    """Intersection over all positions of the reachable sets at gap L.

    Equals the sum of the window-supported subgroups of width L+1; the
    containment of each window subgroup in every C_k(L) gives one direction
    and greedy peeling of leading coordinates gives the other.
    """
    result = code
    for k in range(code.space.horizon):
        result = intersect(result, reachable_set(code, k, L))
    return result


@dataclass(frozen=True)
class Chunk:
    """A finitely supported codeword with its declared support window."""

    word: tuple[int, ...]
    start: int
    stop: int


def _combine(
    coeffs: Sequence[int], rows: Sequence[Sequence[int]], moduli: Sequence[int]
) -> tuple[int, ...]:
    """sum_i coeffs[i] * rows[i], reduced column by column."""
    return tuple(
        sum(q * row[j] for q, row in zip(coeffs, rows)) % m
        for j, m in enumerate(moduli)
    )


def _window_solution(
    code: BlockCode, inner: BlockCode, position: int, target_symbol: Sequence[int]
) -> Optional[tuple[int, ...]]:
    """A word of ``inner`` matching ``target_symbol`` at ``position``.

    Picks the canonical representative: a particular word reduced by the
    subgroup of ``inner`` vanishing at the position.  Both come from the
    graph of the projection of ``inner`` onto the position's coordinates.
    """
    sl = code.space.flat_slice(position, position + 1)
    columns = range(sl.start, sl.stop)
    graph = projection_graph(inner.basis, columns)
    particular = head_solve(graph, len(columns), target_symbol)
    if particular is None:
        return None
    return coset_reduce(head_kernel(graph, len(columns)), particular)


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
    offsets = code.space.offsets()

    def first_nonzero_position(w: Sequence[int]) -> int:
        for idx in range(N):
            if any(w[offsets[idx] : offsets[idx + 1]]):
                return idx
        return -1

    chunks: list[Chunk] = []
    while True:
        k = first_nonzero_position(residual)
        if k < 0:
            break
        bound = N if k + 1 >= N else min(k + 1 + lengths[k + 1], N)
        sl = code.space.flat_slice(k, k + 1)
        target = residual[sl]
        found = None
        for stop in range(k + 1, bound + 1):
            inner = window_internal(code, k, stop)
            candidate = _window_solution(code, inner, k, target)
            if candidate is not None:
                found = (candidate, stop)
                break
        if found is None:
            raise ProfileInsufficientError(k)
        chunk_word, stop = found
        chunks.append(Chunk(chunk_word, k, stop))
        residual = tuple(
            (a - b) % m for a, b, m in zip(residual, chunk_word, moduli)
        )
    return chunks


def _divisors(n: int) -> list[int]:
    """Ascending divisors of n, built from its prime factorization."""
    out = [1]
    for p in prime_factors(n):
        powers = [p**e for e in range(n.bit_length()) if n % p**e == 0]
        out = [d * q for d in out for q in powers]
    return sorted(out)


def order_profile(code: BlockCode, enumeration_bound: int = 1 << 16) -> OrderProfile:
    """Minimal n(l) such that every codeword order-splits at prefix length l.

    A codeword c splits at (l, n) when c = c1 + c2 with c1 in the code
    supported in [0, n), c2 in the code supported in [l, N), and the order
    of c1 at most the order of the truncation c|[0, n) in the ambient
    product.  At n = N the split c1 = c always works, so only n < N is
    searched.  The split search solves congruences over the window-supported
    subgroups; the quantifier over codewords runs over |proj_[0,n) C|
    classes (see ``_order_split_everywhere``), but codes larger than
    ``enumeration_bound`` are still rejected.
    """
    N = code.space.horizon
    if code.cardinality > enumeration_bound:
        raise ValueError(
            f"order profile needs code enumeration; {code.cardinality} words "
            f"exceed the bound {enumeration_bound}"
        )
    moduli = code.space.flat_moduli
    exponent = lcm(*moduli) if moduli else 1
    divisors = _divisors(exponent)
    bounds = []
    for l in range(N + 1):
        suffix = window_internal(code, l, N)
        for n in range(l, N):
            prefix = window_internal(code, 0, n)
            if _order_split_everywhere(code, prefix, suffix, n, divisors):
                bounds.append(n)
                break
        else:
            bounds.append(N)
    return OrderProfile(tuple(bounds))


def _order_split_everywhere(
    code: BlockCode,
    prefix: BlockCode,
    suffix: BlockCode,
    n: int,
    divisors: list[int],
) -> bool:
    """Whether every codeword order-splits at (l, n), suffix = C ∩ [l, N).

    Whether c splits depends only on its class modulo K = C ∩ [n, N): for
    k in K, c + k has the same truncation c|[0, n), and k lies in the
    suffix because l <= n.  The Howell rows of C with pivots before the
    cut enumerate C / K once each, with coefficients below their pivot
    orders (as in ``BlockCode.words``), so only those classes are tested.
    Splits are additive: each row is split once and every class takes the
    same combination of the row splits.  The admissible c1 form the coset
    c1 + (prefix ∩ suffix), and one of them has order dividing t exactly
    when t * c1 lies in t * (prefix ∩ suffix).
    """
    moduli = code.space.flat_moduli
    cut = code.space.offsets()[n]
    both = intersect(prefix, suffix)
    scaled_meets = {
        t: howell_form(scale_rows(both.basis, t)) for t in divisors
    }
    gens = prefix.basis.rows + suffix.basis.rows
    n_prefix = len(prefix.basis.rows)
    exponent = lcm(*moduli) if moduli else 1
    graph = homomorphism_graph(gens, tuple(exponent for _ in gens), moduli)
    heads, head_splits, orders = [], [], []
    for row, (pivot, order) in zip(code.basis.rows, code.pivots()):
        if pivot >= cut:
            break
        coeffs = head_solve(graph, len(moduli), row)
        if coeffs is None:
            # The row is itself a codeword without any split.
            return False
        heads.append(row[:cut])
        head_splits.append(_combine(coeffs[:n_prefix], prefix.basis.rows, moduli))
        orders.append(order)
    for coeffs in itertools.product(*[range(o) for o in orders]):
        c1 = _combine(coeffs, head_splits, moduli)
        order_bound = vector_order(_combine(coeffs, heads, moduli[:cut]), moduli[:cut])
        ok = False
        for t in divisors:
            if t > order_bound:
                break
            scaled_c1 = tuple((t * e) % m for e, m in zip(c1, moduli))
            if contains_vector(scaled_meets[t], scaled_c1):
                ok = True
                break
        if not ok:
            return False
    return True
