"""Brute-force ground truth by exhaustive enumeration.

Every predicate here is a direct transcription of its definition as loops
over enumerated elements.  The only machinery shared with the main path is
element arithmetic; no canonical forms are used, so agreement between the
two implementations is meaningful evidence.

The enumeration bound defaults to ``DEFAULT_BOUND`` = 2**20; every entry
point takes ``bound=`` to change it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable

from .codes import BlockCode

__all__ = ["EnumeratedCode", "enumerate_code", "check_bound", "brute", "DEFAULT_BOUND"]

DEFAULT_BOUND = 1 << 20


class OracleBoundExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class EnumeratedCode:
    """An explicit element list, closed under addition and negation."""

    moduli: tuple[int, ...]
    words: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]

    @cached_property
    def _members(self) -> frozenset[tuple[int, ...]]:
        """The words as a set, built once per enumeration."""
        return frozenset(self.words)

    def __contains__(self, word) -> bool:
        return tuple(word) in self._members


def _closure(generators, moduli, bound):
    zero = tuple(0 for _ in moduli)
    seen = {zero}
    frontier = [zero]
    gens = [tuple(int(e) % m for e, m in zip(g, moduli)) for g in generators]
    while frontier:
        base = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % m for a, b, m in zip(base, g, moduli))
            if nxt not in seen:
                if len(seen) >= bound:
                    raise OracleBoundExceeded(
                        f"span exceeds the oracle bound {bound}"
                    )
                seen.add(nxt)
                frontier.append(nxt)
    return tuple(sorted(seen))


def check_bound(code: BlockCode, bound: int) -> None:
    """Refuse, before listing a word, what ``enumerate_code`` refuses."""
    if code.cardinality > max(bound, 1):
        raise OracleBoundExceeded(f"span exceeds the oracle bound {bound}")


def enumerate_code(code: BlockCode, bound: int = DEFAULT_BOUND) -> EnumeratedCode:
    """Exact element list of a block code via generator closure."""
    moduli = code.space.flat_moduli
    words = _closure(code.basis.rows, moduli, bound)
    return EnumeratedCode(moduli, words, code.space.offsets())


def _supported_in(word, offsets, a, b):
    horizon = len(offsets) - 1
    return all(
        not any(word[offsets[i] : offsets[i + 1]])
        for i in range(horizon)
        if i < a or i >= b
    )


def _word_order(word, moduli):
    orders = [m // gcd(m, e) for e, m in zip(word, moduli)]
    return lcm(*orders) if orders else 1


def _pairs_to_zero(x, chi, moduli):
    total = Fraction(0)
    for a, b, m in zip(x, chi, moduli):
        total += Fraction(a * b, m)
    return total % 1 == 0


def _ambient_words(moduli, bound):
    total = 1
    for m in moduli:
        total *= m
    if total > bound:
        raise OracleBoundExceeded(f"ambient of {total} exceeds bound {bound}")
    return itertools.product(*[range(m) for m in moduli])


def brute_reachable_set(enum: EnumeratedCode, k: int, L: int):
    """C_k(L) by the double loop over (c, w)."""
    horizon = len(enum.offsets) - 1
    out = []
    for c in enum.words:
        for w in enum.words:
            if not _supported_in(w, enum.offsets, k, horizon):
                continue
            sl = slice(enum.offsets[min(k + L, horizon)], None)
            if w[sl] == c[sl]:
                out.append(c)
                break
    return tuple(out)


def brute_consistency_set(enum: EnumeratedCode, k: int, L: int, bound: int):
    """(C_f)_k[L] by enumerating the ambient product."""
    horizon = len(enum.offsets) - 1
    b = min(k + L + 1, horizon)
    sl = slice(enum.offsets[k], enum.offsets[b])
    allowed = {w[sl] for w in enum.words}
    return tuple(
        x for x in _ambient_words(enum.moduli, bound) if x[sl] in allowed
    )


def brute_annihilator(enum: EnumeratedCode, bound: int):
    """All characters orthogonal to every codeword."""
    return tuple(
        chi
        for chi in _ambient_words(enum.moduli, bound)
        if all(_pairs_to_zero(x, chi, enum.moduli) for x in enum.words)
    )


def brute_order_profile(enum: EnumeratedCode):
    """Minimal order-split bounds by the triple loop."""
    horizon = len(enum.offsets) - 1
    moduli = enum.moduli
    words = enum._members

    def truncated_order(word, n):
        sl = slice(0, enum.offsets[n])
        orders = [m // gcd(m, e) for e, m in zip(word[sl], moduli[sl])]
        return lcm(*orders) if orders else 1

    bounds = []
    for l in range(horizon + 1):
        n = l
        while True:
            good = True
            for c in enum.words:
                found = False
                for c1 in enum.words:
                    if not _supported_in(c1, enum.offsets, 0, n):
                        continue
                    c2 = tuple((a - b) % m for a, b, m in zip(c, c1, moduli))
                    if c2 not in words:
                        continue
                    if not _supported_in(c2, enum.offsets, l, horizon):
                        continue
                    if _word_order(c1, moduli) <= truncated_order(c, n):
                        found = True
                        break
                if not found:
                    good = False
                    break
            if good:
                bounds.append(n)
                break
            n += 1
    return tuple(bounds)


def brute_control_profile(enum: EnumeratedCode):
    horizon = len(enum.offsets) - 1
    lengths = []
    for k in range(horizon):
        L = 0
        while set(brute_reachable_set(enum, k, L)) != enum._members:
            L += 1
        lengths.append(L)
    return tuple(lengths)


def brute_verify_decomposition(enum: EnumeratedCode, generators) -> bool:
    """Directness and cardinality by counting the closure of the factors."""
    moduli = enum.moduli
    for word, order in generators:
        if word not in enum:
            return False
        if _word_order(word, moduli) != order:
            return False
    total = 1
    for _, order in generators:
        total *= order
    span = _closure([w for w, _ in generators], moduli, len(enum.words) + 1)
    return len(span) == total == len(enum.words)


def brute_smith_invariants(enum: EnumeratedCode):
    """Isomorphism type from the order statistics of the element list.

    The count of elements killed by d equals the product of gcd(d, d_i), so
    the per-prime layer sizes determine the invariant factors.
    """
    moduli = enum.moduli
    size = len(enum.words)
    if size == 1:
        return ()
    exponent = 1
    for w in enum.words:
        o = _word_order(w, moduli)
        exponent = lcm(exponent, o)
    primes = []
    n = size
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    partitions = {}
    for p in primes:
        p_exponent = 1
        while exponent % (p_exponent * p) == 0:
            p_exponent *= p
        layers = []
        power = 1
        while True:
            power *= p
            killed = sum(
                1
                for w in enum.words
                if all((power * e) % m == 0 for e, m in zip(w, moduli))
            )
            layers.append(killed)
            if power % p_exponent == 0:
                break
        # layers[i] = p ** sum(min(i+1, lam_k)); recover the partition.
        logs = [round(math.log(x, p)) for x in layers]
        logs = [0] + logs
        counts = [logs[i + 1] - logs[i] for i in range(len(logs) - 1)]
        parts = []
        for i, c in enumerate(counts):
            nxt = counts[i + 1] if i + 1 < len(counts) else 0
            for _ in range(c - nxt):
                parts.append(i + 1)
        partitions[p] = sorted(parts, reverse=True)
    depth = max(len(v) for v in partitions.values())
    factors = []
    for i in range(depth):
        f = 1
        for p, parts in partitions.items():
            if i < len(parts):
                f *= p ** parts[i]
        factors.append(f)
    return tuple(sorted(factors))


_PREDICATES: dict[str, Callable] = {
    "reachable_set": brute_reachable_set,
    "consistency_set": brute_consistency_set,
    "annihilator": brute_annihilator,
    "order_profile": brute_order_profile,
    "control_profile": brute_control_profile,
    "verify_decomposition": brute_verify_decomposition,
    "smith_invariants": brute_smith_invariants,
}


def brute(predicate: str, code: BlockCode, *args, bound: int = DEFAULT_BOUND):
    """Dispatch a named predicate against the enumerated code."""
    if predicate not in _PREDICATES:
        raise ValueError(
            f"unknown predicate {predicate!r}; choose from {sorted(_PREDICATES)}"
        )
    enum = enumerate_code(code, bound)
    fn = _PREDICATES[predicate]
    if predicate == "consistency_set":
        return fn(enum, *args, bound)
    if predicate == "annihilator":
        return fn(enum, bound)
    return fn(enum, *args)
