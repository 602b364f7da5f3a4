"""Brute-force ground truth by exhaustive enumeration.

Every predicate here is a direct transcription of its definition over
enumerated elements, in integer arithmetic.  The only machinery shared with
the main path is element arithmetic; no canonical or Howell form is built,
so agreement between the two implementations is meaningful evidence.

Each twin reads its definition in one pass over the words: a reachable set
hashes the tails of the words vanishing before its start, an order split
(l, n) keeps the least order per head of the words on [0, n), and the
annihilator pairs each character with every word, the weights L/m_j
folded into the words once.  The order profile relies on the enumeration
being closed under subtraction: for any codewords c and c1, c - c1 is a
codeword, so it is never looked up.

The enumeration bound defaults to ``DEFAULT_BOUND`` = 2**20; every entry
point takes ``bound=`` to change it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod
from operator import mul
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


def _word_order(word, moduli):
    return lcm(*(m // gcd(m, e) for e, m in zip(word, moduli)))


def _ambient_words(moduli, bound):
    total = prod(moduli)
    if total > bound:
        raise OracleBoundExceeded(f"ambient of {total} exceeds bound {bound}")
    return itertools.product(*[range(m) for m in moduli])


def _first(holds, candidates, what):
    """The first candidate that holds.  Each search below ends at a
    candidate that holds by definition, so running out is a fault."""
    for candidate in candidates:
        if holds(candidate):
            return candidate
    raise AssertionError(f"no {what} holds up to the horizon")


def brute_reachable_set(enum: EnumeratedCode, k: int, L: int):
    """C_k(L): the words whose tail from offset(min(k+L, N)) is the tail of
    a word vanishing before offset(k); one pass to hash those tails, one to
    keep the words."""
    horizon = len(enum.offsets) - 1
    head = enum.offsets[k]
    tail = enum.offsets[min(k + L, horizon)]
    tails = {w[tail:] for w in enum.words if not any(w[:head])}
    return tuple(c for c in enum.words if c[tail:] in tails)


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
    """All characters chi that pair to zero with every codeword x:
    sum_j x_j chi_j / m_j is 0 in Q/Z, that is sum_j x_j chi_j (L/m_j) = 0
    mod L with L = lcm(m_j).  The weights L/m_j are folded into the words
    once."""
    L = lcm(*enum.moduli)
    weighted = [[e * (L // m) for e, m in zip(x, enum.moduli)] for x in enum.words]
    return tuple(
        chi
        for chi in _ambient_words(enum.moduli, bound)
        if all(sum(map(mul, x, chi)) % L == 0 for x in weighted)
    )


def brute_order_profile(enum: EnumeratedCode):
    """The least n(l) >= l such that every c is c1 + c2 with c1 on [0, n),
    c2 on [l, N) and order(c1) at most the order of c on [0, n).

    c2 = c - c1 is a codeword for every c1, since the enumeration is closed
    under subtraction, and it lies on [l, N) exactly when c1 agrees with c
    before offset(l).  So (l, n) splits every c when, per head (the entries
    before offset(l)), the least order of a word vanishing from offset(n)
    on is at most the order of c on [0, n): one pass over the words keeps
    those least orders, and one compares them with each c."""
    offsets, moduli, words = enum.offsets, enum.moduli, enum.words
    horizon = len(offsets) - 1
    symbols = [slice(offsets[i], offsets[i + 1]) for i in range(horizon)]
    # orders[w][n] is the order of w on [0, offset(n)); w lies on
    # [0, ends[w]) and on no shorter prefix.
    orders = [
        list(itertools.accumulate((_word_order(w[s], moduli[s]) for s in symbols), lcm, initial=1))
        for w in words
    ]
    ends = [max((i + 1 for i, s in enumerate(symbols) if any(w[s])), default=0) for w in words]

    def splits(l, n):
        cut = offsets[l]
        least = {}
        for c1, end, order in zip(words, ends, orders):
            if end <= n:
                head = c1[:cut]
                least[head] = min(order[n], least.get(head, order[n]))
        return all(
            c[:cut] in least and least[c[:cut]] <= order[n] for c, order in zip(words, orders)
        )

    return tuple(
        _first(lambda n: splits(l, n), range(l, horizon + 1), "order split")
        for l in range(horizon + 1)
    )


def brute_control_profile(enum: EnumeratedCode):
    """The least L with C_k(L) = C, per k; C_k(N - k) = C, so L <= N - k."""
    horizon = len(enum.offsets) - 1
    return tuple(
        _first(
            lambda L: set(brute_reachable_set(enum, k, L)) == enum._members,
            range(horizon - k + 1),
            "control length",
        )
        for k in range(horizon)
    )


def brute_verify_decomposition(enum: EnumeratedCode, generators) -> bool:
    """Directness and cardinality by counting the closure of the factors."""
    moduli = enum.moduli
    for word, order in generators:
        if word not in enum:
            return False
        if _word_order(word, moduli) != order:
            return False
    total = prod(order for _, order in generators)
    span = _closure([w for w, _ in generators], moduli, len(enum.words) + 1)
    return len(span) == total == len(enum.words)


def _exact_log(x, p):
    """The e with x = p**e, by exact division."""
    e, rest = 0, x
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise AssertionError(f"{x} is not a power of {p}")
    return e


def brute_smith_invariants(enum: EnumeratedCode):
    """Isomorphism type from the order statistics of the element list.

    For a prime p, log_p of the count of words killed by p^i rises by the
    number of cyclic p-factors of order at least p^i, and stops rising at
    the p-part's exponent; those rises are the conjugate of the p-part's
    partition.
    """
    moduli, words = enum.moduli, enum.words
    primes, n, d = [], len(words), 2
    while n > 1:
        if d * d > n:
            d = n
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    partitions = {}
    for p in primes:
        logs = [0]
        for power in (p**i for i in itertools.count(1)):
            killed = sum(all(power * e % m == 0 for e, m in zip(w, moduli)) for w in words)
            logs.append(_exact_log(killed, p))
            if logs[-1] == logs[-2]:
                break
        rises = [b - a for a, b in zip(logs, logs[1:])]
        partitions[p] = [sum(r > j for r in rises) for j in range(rises[0])]
    depth = max((len(parts) for parts in partitions.values()), default=0)
    return tuple(sorted(
        prod(p ** parts[j] for p, parts in partitions.items() if j < len(parts))
        for j in range(depth)
    ))


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
