"""Rectangular and weakly rectangular structure of block codes.

A decomposition certifies that the code is the internal direct product of
cyclic subgroups generated by finitely supported codewords, each with a
declared support window.  Every decomposition produced here is checked by
``verify_decomposition``; the greedy construction is a heuristic, the
verification is not.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from math import gcd, lcm
from operator import mod, mul
from typing import Optional, Sequence

from .codes import BlockCode, SequenceSpace, code_from_generators
from .groups import FiniteAbelianGroup, primary_part
from .linalg import (
    Entry,
    Vector,
    _entry,
    _head_solve_kernel,
    _howell_state,
    _reduce_vector,
    _trusted,
    head_kernel,
    homomorphism_graph,
    howell_form,
    vector_order,
)

__all__ = [
    "DecompositionGenerator",
    "Decomposition",
    "VerificationCertificate",
    "coprime_rectangular",
    "cyclic_product_decomposition",
    "verify_decomposition",
    "is_subdirect_product",
    "DecompositionError",
]


class DecompositionError(ValueError):
    """Raised when a decomposition cannot be constructed or verified."""


@dataclass(frozen=True)
class DecompositionGenerator:
    """One cyclic factor: a codeword, its support window, order and prime."""

    word: tuple[int, ...]
    start: int
    stop: int
    order: int
    prime: Optional[int]


@dataclass(frozen=True)
class Decomposition:
    """A list of cyclic generators certifying weak rectangularity.

    Decompositions built by this module carry the certificate of the
    ``verify_decomposition`` run that accepted them.
    """

    space: SequenceSpace
    generators: tuple[DecompositionGenerator, ...]
    certificate: Optional[VerificationCertificate] = field(default=None, compare=False)

    @property
    def order_product(self) -> int:
        return math.prod(g.order for g in self.generators)


@dataclass(frozen=True)
class VerificationCertificate:
    """Machine-checkable record of every verified condition."""

    membership_ok: bool
    support_ok: bool
    directness_ok: tuple[bool, ...]
    cardinality_ok: bool
    failed_condition: Optional[str]

    @property
    def ok(self) -> bool:
        return self.failed_condition is None

    def render(self) -> str:
        lines = [
            f"membership of generators in code: {'yes' if self.membership_ok else 'NO'}",
            f"supports inside declared windows: {'yes' if self.support_ok else 'NO'}",
        ]
        for j, good in enumerate(self.directness_ok):
            lines.append(
                f"<y_1..y_{j + 1}> meets <y_{j + 2}> trivially: "
                f"{'yes' if good else 'NO'}"
            )
        lines.append(
            f"product of orders equals code order: "
            f"{'yes' if self.cardinality_ok else 'NO'}"
        )
        lines.append(f"verdict: {'valid' if self.ok else 'invalid'}")
        return "\n".join(lines)


def verify_decomposition(
    code: BlockCode, decomposition: Decomposition
) -> tuple[bool, VerificationCertificate]:
    """Check membership, supports, internal directness and cardinality.

    Directness, the implication that a vanishing sum forces every summand
    to vanish, holds step by step: <y_1..y_j> meets <y_{j+1}> trivially
    exactly when |<y_1..y_{j+1}>| = |<y_1..y_j>| · ord(y_{j+1}).  Each
    step has <= there, so all are equalities exactly when their product
    |<y_1..y_k>| = ∏ ord(y_i) is: one Howell form of all the words
    (``_directness``), with the prefix spans built only when it fails, to
    name the first failing step.  The decomposition must live in the
    code's space.
    """
    if decomposition.space != code.space:
        raise ValueError("decomposition and code live in different spaces")
    moduli = code.space.flat_moduli
    gens = decomposition.generators
    membership_ok = all(code.contains(g.word) for g in gens)
    support_ok = True
    for g in gens:
        lo, hi = code.space.support(g.word)
        if lo == hi:
            support_ok = False  # zero generators carry no information
        elif not (g.start <= lo and hi <= g.stop):
            support_ok = False
        if vector_order(g.word, moduli) != g.order:
            support_ok = False
    directness = _directness(code.space, [g.word for g in gens])
    cardinality_ok = decomposition.order_product == code.cardinality
    failed = None
    if not membership_ok:
        failed = "membership"
    elif not support_ok:
        failed = "support windows or declared orders"
    elif not all(directness):
        failed = f"directness at generator {directness.index(False) + 2}"
    elif not cardinality_ok:
        failed = "order product vs code cardinality"
    cert = VerificationCertificate(
        membership_ok=membership_ok,
        support_ok=support_ok,
        directness_ok=directness,
        cardinality_ok=cardinality_ok,
        failed_condition=failed,
    )
    return cert.ok, cert


def _directness(space: SequenceSpace, words: list[tuple[int, ...]]) -> tuple[bool, ...]:
    """The directness steps j = 1..k-1: all true when the span of all k
    words has order ∏ ord(y_i), else read off the span of each prefix."""
    orders = [vector_order(word, space.flat_moduli) for word in words]
    steps, rows, before = [], (), 1
    if len(words) < 2 or code_from_generators(space, words).cardinality == math.prod(orders):
        return (True,) * (len(words) - 1)
    for word, order in zip(words, orders):
        spanned = code_from_generators(space, rows + (word,))
        steps.append(spanned.cardinality == before * order)
        rows, before = spanned.basis.rows, spanned.cardinality
    return tuple(steps[1:])


def coprime_rectangular(code: BlockCode) -> Optional[Decomposition]:
    """Rectangular decomposition when symbol orders are pairwise coprime.

    Returns the per-coordinate decomposition, verified (so its factors
    recombine to the code), or None when the coprimality hypothesis fails.
    Under the hypothesis each prime divides one symbol order, so each
    p-part of the code lies in one coordinate and every factor of the
    code's own peel (``_peel``) is supported on one [i, i + 1).  The
    factors are that peel's, stably sorted by coordinate and with no
    prime.  So they are primary cyclic factors, as ``decompose`` prints:
    Z/12 ⊇ <2> gives orders 2 and 3, not one factor of order 6.
    The verification is unconditional: a failure under the hypothesis would
    be a bug, not a soft failure.
    """
    orders = [g.cardinality for g in code.space.symbols]
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            if gcd(orders[i], orders[j]) != 1:
                return None
    gens = sorted(_peel(code), key=lambda g: g.start)
    return _verified(code, [replace(g, prime=None) for g in gens])


def _verified(code: BlockCode, gens: list[DecompositionGenerator]) -> Decomposition:
    """The decomposition of ``code`` into ``gens`` with its certificate;
    raises DecompositionError when verification fails."""
    ok, cert = verify_decomposition(code, Decomposition(code.space, tuple(gens)))
    if not ok:
        raise DecompositionError(f"verification failed: {cert.failed_condition}")
    return Decomposition(code.space, tuple(gens), cert)


def _primary_rows(code: BlockCode, p: int) -> tuple[tuple[Vector, ...], list[tuple[int, int]]]:
    """The column-reversed Howell rows of the code's p-primary part, over
    the reversed p-parts of its moduli, with the ``primary_part`` pair
    (q, u) of each column: a row enters as e mod q and a component word
    leaves as e·u mod m, column by column.  When every modulus is a power
    of p (1 included), the part is the code itself and its rows are the
    code's own ``_reversed_howell``."""
    moduli = code.space.flat_moduli
    columns = [primary_part(m, p) for m in moduli]
    if all(q == m for (q, _), m in zip(columns, moduli)):
        return code._reversed_howell, columns  # every column a power of p: u = 1 (or Z/1)
    parts = tuple(q for q, _ in reversed(columns))
    rows = tuple(tuple(map(mod, row[::-1], parts)) for row in code.basis.rows)
    return howell_form(_trusted(parts, rows)).rows, columns


def _smallest_full_prefix(
    record: Entry, moduli: Vector, offsets: Sequence[int]
) -> tuple[int, int]:
    """(n, exponent): the least n with C ∩ [0, n) of the exponent of C, a
    p-group given by the record of its column-reversed Howell rows
    (``moduli`` and ``offsets`` are those of its space, in their own
    order).

    C ∩ [0, n) is spanned by the rows that vanish from offset(n) on.  In
    a p-group a span's exponent is the largest order of its generators, so
    the window reaches the exponent once it takes in a row of maximal
    order.  The reversed pivots strictly increase, so the last such row
    has the least last nonzero column, and n is the block after it.
    """
    rows, columns, _ = record
    reversed_moduli = moduli[::-1]
    orders = [vector_order(row, reversed_moduli) for row in rows]
    exponent = max(orders)
    last = columns[len(orders) - 1 - orders[::-1].index(exponent)]
    return bisect_right(offsets, len(moduli) - 1 - last), exponent


def _max_order_in_smallest_window(
    record: Entry, moduli: Vector, offsets: Sequence[int], p: int
) -> tuple[tuple[int, ...], int]:
    """The target generator of the p-group C given by the record of its
    column-reversed Howell rows: maximal order, realizable in the smallest
    prefix window (``_smallest_full_prefix``), lexicographically least
    among candidates.

    The window's forward rows are one push of the rows that vanish from
    offset(n) on, re-reversed, read unfinished (``record``).  Its words
    are the combinations of those rows with coefficients below the pivot
    orders; by the Howell property a column that is no row's pivot is
    fixed by the earlier ones, and the values at pivot j range over
    word[j] + d_j·Z, whatever lies above the pivots.  So descend: at each
    pivot take the least value that keeps a word of order p^e reachable,
    i.e. p^(e-1)·y nonzero or some later row not killed by p^(e-1) (the
    later rows span the same words on any basis, and a p^(e-1) that
    kills them kills every change of basis in y).
    """
    n, exponent = _smallest_full_prefix(record, moduli, offsets)
    head = offsets[-1] - offsets[n]
    state = _howell_state(moduli)
    state.push(row[::-1] for row in record[0] if not any(row[:head]))
    inner, columns, products = state.record()
    below = exponent // p
    word = (0,) * len(moduli)
    for i, (row, j) in enumerate(zip(inner, columns)):
        order = products[i + 1] // products[i]
        later = any((below * e) % m for r in inner[i + 1 :] for e, m in zip(r, moduli))
        # Pivot values ascend through word[j] + row[j]·Z; at most every p-th
        # value leaves no word of order p^e, so the first or second is kept.
        for value in range(word[j] % row[j], moduli[j], row[j]):
            a = (value - word[j]) // row[j] % order
            y = tuple((w + a * e) % m for w, e, m in zip(word, row, moduli))
            if later or any((below * e) % m for e, m in zip(y, moduli)):
                word = y
                break
    return word, exponent


def _peel_complement(
    rows: tuple[Vector, ...], moduli: Vector, word: Sequence[int], order: int
) -> tuple[Vector, ...]:
    """The column-reversed Howell rows of an internal complement of <word>
    in the group C with column-reversed Howell ``rows`` over ``moduli``.

    A character valued in the order-torsion of the circle with value
    1/order on the generator splits the group: the kernel of its
    restriction meets <word> trivially and joins with it to everything.
    Existence needs the generator order to equal the exponent of C.  The
    character is made canonical by restricting its support to the shortest
    prefix on which the generator already realizes its full order and
    reducing within the solution coset, both read off one Howell form of
    the character graph (``linalg._head_solve_kernel``); pinning early
    coordinates pushes the complement rightward, matching the
    left-to-right peeling of the construction.  The complement is the
    vanishing-head read of the rows [chi(r) | r] over the reversed rows r,
    with chi's weights reversed.  The Howell form is canonical in any
    fixed column order, so its tails are the complement's reversed Howell
    form: no second kernel.
    """
    L = lcm(*moduli)
    for prefix in range(1, len(moduli) + 1):
        if vector_order(word[:prefix], moduli[:prefix]) != order:
            continue
        images = [[(e * (L // m)) % L] for e, m in zip(word[:prefix], moduli[:prefix])]
        graph = homomorphism_graph(images, moduli[:prefix], (L,))
        chi_head, kernel = _head_solve_kernel(graph, 1, (L // order,))
        if chi_head is None:
            continue
        basis, pivots, _ = _entry(kernel.rows, kernel.moduli)
        chi = _reduce_vector(basis, pivots, kernel.moduli, chi_head)
        # chi vanishes beyond the prefix, so on the first reversed columns.
        weights = [c * (L // m) for c, m in zip(chi[::-1], moduli[prefix - 1 :: -1])]
        cut = len(moduli) - prefix
        reads = tuple((sum(map(mul, row[cut:], weights)) % L,) + row for row in rows)
        return head_kernel(_trusted((L,) + moduli[::-1], reads), 1).rows
    raise DecompositionError("no splitting character; order below exponent")


def cyclic_product_decomposition(code: BlockCode) -> Decomposition:
    """Weakly rectangular decomposition through the primary parts: the
    generators of ``_peel``, checked by ``verify_decomposition`` and
    carrying its certificate; a failure raises DecompositionError."""
    return _verified(code, _peel(code))


def _peel(code: BlockCode) -> list[DecompositionGenerator]:
    """The primary cyclic generators of the code, prime by prime.

    The code splits into primary parts column by column (``_primary_rows``);
    inside each p-part, generators of maximal order realizable in the
    smallest prefix window are peeled off as direct factors via splitting
    characters, and each is embedded back as e·u mod m per column.  Each
    part is held as column-reversed Howell rows, with no code built.
    The peel always succeeds: in a finite abelian p-group an element of
    maximal order generates a direct summand (Fuchs, *Infinite Abelian
    Groups* I, §27), and the splitting character of ``_peel_complement``
    exhibits the complement.  Each generator is the lexicographically least
    word of maximal order in its window, found by descent over the Howell
    rows of the window, so no codeword is enumerated.

    Each peel must leave a complement of order |part| / ord(word), the
    last running product of its record (``linalg._entry``, one per form,
    which the next peel reads too); one that does not raises
    DecompositionError, so the loop ends within log2 |C| peels.
    """
    gens: list[DecompositionGenerator] = []
    moduli, offsets = code.space.flat_moduli, code.space.offsets()
    for p in FiniteAbelianGroup(moduli).primes():
        rows, columns = _primary_rows(code, p)
        parts = tuple(q for q, _ in columns)
        record = _entry(rows, parts[::-1])
        while record[0]:
            word, order = _max_order_in_smallest_window(record, parts, offsets, p)
            embedded = tuple(e * u % m for e, (_, u), m in zip(word, columns, moduli))
            gens.append(DecompositionGenerator(embedded, *code.space.support(embedded), order, p))
            expected = record[2][-1] // order
            record = _entry(_peel_complement(record[0], parts, word, order), parts[::-1])
            if record[2][-1] != expected:
                raise DecompositionError(
                    f"peel left a complement of order {record[2][-1]}, not {expected}"
                )
    return gens


def is_subdirect_product(code: BlockCode, decomposition: Decomposition) -> bool:
    """Whether the factor subgroups recombine to the code.

    At finite horizon the direct sum and the direct product coincide, so the
    defining intersection condition collapses to the recombination equality
    checked here; a verified decomposition therefore always passes, and that
    collapse is a structural fact of the finite setting rather than a
    coincidence.  The decomposition must live in the code's space.
    """
    if decomposition.space != code.space:
        raise ValueError("decomposition and code live in different spaces")
    words = [g.word for g in decomposition.generators]
    return code_from_generators(code.space, words) == code
