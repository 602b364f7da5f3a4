"""Rectangular and weakly rectangular structure of block codes.

A decomposition certifies that the code is the internal direct product of
cyclic subgroups generated by finitely supported codewords, each with a
declared support window.  Every decomposition produced here is checked by
``verify_decomposition``; the greedy construction is a heuristic, the
verification is not.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from math import gcd, lcm
from operator import mod
from typing import NamedTuple, Optional, Sequence

from .codes import BlockCode, SequenceSpace, code_from_generators
from .groups import FiniteAbelianGroup, primary_part
from .linalg import (
    Entry, Vector, _HowellState, _howell_record, _howell_state, residue_matrix, vector_order
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


class DecompositionGenerator(NamedTuple):
    """One cyclic factor: a codeword, its support window, order and prime."""

    word: tuple[int, ...]
    start: int
    stop: int
    order: int
    prime: Optional[int]


class Decomposition:
    """A list of cyclic generators certifying weak rectangularity.

    Decompositions built by this module carry the certificate of the
    ``verify_decomposition`` run that accepted them; it takes no part in
    equality or the hash.
    """

    def __init__(
        self, space: SequenceSpace, generators: tuple[DecompositionGenerator, ...],
        certificate: Optional[VerificationCertificate] = None,
    ) -> None:
        self.space, self.generators, self.certificate = space, generators, certificate

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.space == other.space and self.generators == other.generators

    def __hash__(self) -> int:
        return hash((self.space, self.generators))

    def __repr__(self) -> str:
        return (
            f"Decomposition(space={self.space!r}, generators={self.generators!r}, "
            f"certificate={self.certificate!r})"
        )

    @property
    def order_product(self) -> int:
        return math.prod(g.order for g in self.generators)


class VerificationCertificate(NamedTuple):
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
    orders = [vector_order(g.word, moduli) for g in gens]
    support_ok = True
    for g, order in zip(gens, orders):
        lo, hi = code.space.support(g.word)
        if lo == hi:
            support_ok = False  # zero generators carry no information
        elif not (g.start <= lo and hi <= g.stop):
            support_ok = False
        if order != g.order:
            support_ok = False
    directness = _directness(code.space, [g.word for g in gens], orders)
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


def _directness(
    space: SequenceSpace, words: list[tuple[int, ...]], orders: list[int]
) -> tuple[bool, ...]:
    """The directness steps j = 1..k-1 of ``words`` with ``orders``: all
    true when the span of all k words has order ∏ ord(y_i), else read
    off the span of each prefix.  One record (``linalg._howell_record``)
    gives that order: only its pivot orders are read."""
    if len(words) < 2:
        return ()
    if _howell_record(residue_matrix(words, space.flat_moduli))[2][-1] == math.prod(orders):
        return (True,) * (len(words) - 1)
    steps, rows, before = [], (), 1
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
    return _verified(code, [g._replace(prime=None) for g in gens])


def _verified(code: BlockCode, gens: list[DecompositionGenerator]) -> Decomposition:
    """The decomposition of ``code`` into ``gens`` with its certificate;
    raises DecompositionError when verification fails."""
    ok, cert = verify_decomposition(code, Decomposition(code.space, tuple(gens)))
    if not ok:
        raise DecompositionError(f"verification failed: {cert.failed_condition}")
    return Decomposition(code.space, tuple(gens), cert)


def _primary_state(code: BlockCode, p: int) -> tuple[_HowellState, list[tuple[int, int]]]:
    """A Howell kernel state holding the column-reversed rows of the
    code's p-primary part, over the reversed p-parts of its moduli, with
    the ``primary_part`` pair (q, u) of each column: a row enters as
    e mod q and a component word leaves as e·u mod m, column by column.
    The code's Howell rows go in reversed and reduced modulo the p-parts,
    in one push, and the peel reads the state's unfinished ``record``, so
    no Howell form is taken.  When every modulus is a power of p (1
    included), the part is the code itself."""
    columns = [primary_part(m, p) for m in code.space.flat_moduli]
    parts = tuple(q for q, _ in reversed(columns))
    state = _howell_state(parts)
    state.push(tuple(map(mod, row[::-1], parts)) for row in code.basis.rows)
    return state, columns


def _row_orders(
    record: Entry, moduli: Vector, kept: dict[int, tuple[Vector, int]]
) -> tuple[int, ...]:
    """The order of each row of ``record``, a record of column-reversed
    rows over the reversed ``moduli``.  ``kept`` holds each pivot
    column's record row and its order: a state's record keeps every row
    that the pushes since the last record left alone as the same tuple
    object, so only the orders of new rows are computed."""
    reversed_moduli, orders = moduli[::-1], []
    for row, j in zip(record[0], record[1]):
        seen = kept.get(j)
        if seen is None or seen[0] is not row:
            seen = kept[j] = (row, vector_order(row, reversed_moduli))
        orders.append(seen[1])
    return tuple(orders)


def _smallest_full_prefix(
    record: Entry, orders: Sequence[int], moduli: Vector, offsets: Sequence[int]
) -> tuple[int, int]:
    """(n, exponent): the least n with C ∩ [0, n) of the exponent of C, a
    p-group given by a weak Howell form of its column-reversed rows
    (``record``) and the order of each of its rows (``orders``, read off
    ``_row_orders``); ``moduli`` and ``offsets`` are those of its space,
    in their own order.

    By the Howell property, C ∩ [0, n) is spanned by the rows that vanish
    from offset(n) on.  In a p-group a span's exponent is the largest
    order of its generators, so the window reaches the exponent once it
    takes in a row of maximal order.  The reversed pivots strictly
    increase, so the last such row has the least last nonzero column, and
    n is the block after it.  Neither step reads more than the Howell
    property, so any basis that has it gives the same n.
    """
    exponent = max(orders)
    last = record[1][len(orders) - 1 - orders[::-1].index(exponent)]
    return bisect_right(offsets, len(moduli) - 1 - last), exponent


def _max_order_in_smallest_window(
    record: Entry, orders: Sequence[int], moduli: Vector, offsets: Sequence[int], p: int
) -> tuple[tuple[int, ...], int]:
    """The target generator of the p-group C given by a weak Howell form
    of its column-reversed rows (``record``, with the row ``orders``):
    maximal order, realizable in the smallest prefix window
    (``_smallest_full_prefix``), lexicographically least among candidates.

    The window's forward rows are one push of the rows that vanish from
    offset(n) on, the rows with reversed pivot at or after the head,
    re-reversed, read unfinished (``record``).  Its words
    are the combinations of those rows with coefficients below the pivot
    orders; by the Howell property a column that is no row's pivot is
    fixed by the earlier ones, and the values at pivot j range over
    word[j] + d_j·Z, whatever lies above the pivots.  So descend: at each
    pivot take the least value that keeps a word of order p^e reachable,
    i.e. p^(e-1)·y nonzero or some later row not killed by p^(e-1) (the
    later rows span the same words on any basis, and a p^(e-1) that
    kills them kills every change of basis in y).
    """
    n, exponent = _smallest_full_prefix(record, orders, moduli, offsets)
    rows, columns, _ = record
    state = _howell_state(moduli)
    state.push(row[::-1] for row in rows[bisect_left(columns, offsets[-1] - offsets[n]) :])
    inner, columns, products = state.record()
    below = exponent // p
    killed = [not any((below * e) % m for e, m in zip(r, moduli)) for r in inner]
    word = (0,) * len(moduli)
    for i, (row, j) in enumerate(zip(inner, columns)):
        order = products[i + 1] // products[i]
        later = not all(killed[i + 1 :])
        # Pivot values ascend through word[j] + row[j]·Z; at most every p-th
        # value leaves no word of order p^e, so the first or second is kept.
        for value in range(word[j] % row[j], moduli[j], row[j]):
            a = (value - word[j]) // row[j] % order
            y = tuple((w + a * e) % m for w, e, m in zip(word, row, moduli))
            if later or any((below * e) % m for e, m in zip(y, moduli)):
                word = y
                break
    return word, exponent


def _splitting_character(word: Sequence[int], moduli: Vector, order: int) -> Vector:
    """The canonical splitting character of <word>, ``word`` of order
    ``order``, the exponent of the group: the lexicographically least
    chi on the shortest prefix of P columns with
    sum_{j<P} chi_j·w_j = L/order (mod L), w_j = word_j·(L/m_j), L the
    lcm of ``moduli``.  chi has length P, and it pairs ``word`` to
    1/order, so it splits <word> off (``_peel_complement``).

    The sums over Z/m_0 x ... x Z/m_(P-1) form the subgroup g_0·Z/L,
    g_j = gcd(w_j, ..., w_(P-1), L), so P is the least prefix with g_0
    dividing L/order.  As w_j has the order of word_j in Z/m_j, that
    subgroup has the order of word[:P], and P is the shortest prefix on
    which the word has its full order.  The least chi is greedy: a
    choice of chi_0..chi_j leaves a solvable rest exactly when the rest t
    of the target lies in g_(j+1)·Z, so chi_j is the least residue with
    chi_j·w_j = t (mod g_(j+1)); one exists, t lying in g_j·Z, and the
    least lies below m_j, where some solution does.  Where word_j = 0,
    g_j = g_(j+1) divides t, so chi_j = 0: chi lives on the word's support.

    This is the chi of the graph route, a particular solution reduced by
    the Howell form H of the solution kernel (``kernel_references``):
    that reduction gives the least element of the coset.  If u in the
    coset differed from the reduced v first at column j, u - v would lie
    in the kernel and vanish before j, so by the Howell property it would
    lie in the span of the rows of H with pivot at or after j: it would
    be 0 at j if no row has pivot j, and a multiple of the pivot d there
    otherwise.  So u_j = v_j (mod d), v_j < d and u_j != v_j give
    u_j > v_j.
    """
    L = lcm(*moduli)
    target, g, weights = L // order, L, []
    for e, m in zip(word, moduli):
        weights.append(e * (L // m) % L)
        g = gcd(g, weights[-1])
        if target % g == 0:
            break
    else:
        raise DecompositionError("no splitting character; order below exponent")
    tails = [L] * (len(weights) + 1)  # tails[j] = gcd(w_j, ..., w_(P-1), L)
    for j in range(len(weights) - 1, -1, -1):
        tails[j] = gcd(tails[j + 1], weights[j])
    chi = []
    for w, g in zip(weights, tails[1:]):
        d = gcd(w, g)
        x = target // d * pow(w // d, -1, g // d) % (g // d)
        chi.append(x)
        target = (target - x * w) % L
    return tuple(chi)


def _peel_complement(
    state: _HowellState,
    record: Entry,
    moduli: Vector,
    word: Sequence[int],
    order: int,
) -> None:
    """Make ``state``, which holds the column-reversed rows of the p-group
    C over the reversed ``moduli`` and whose record is ``record``, hold an
    internal complement of <word> instead.

    A character valued in the order-torsion of the circle with value
    1/order on the generator splits the group: the kernel of its
    restriction meets <word> trivially and joins with it to everything.
    Existence needs the generator order to equal the exponent of C.  The
    character is the canonical one of ``_splitting_character``: it lives
    on the shortest prefix on which the word has its full order, so
    pinning early coordinates pushes the complement rightward, matching
    the left-to-right peeling of the construction.  In reversed columns
    it meets the last P columns only.

    The record's rows r split into A, those with chi(r) = 0, and B, the
    rest, and ker(chi|C) = span(A) + ker(chi|span B): a kernel element
    minus its A part is a B combination with chi 0.  In a p-group the
    values chi(b) lie in the cyclic Z/L, so the value v* of least
    valuation, at a row b*, divides every other: v_b = q_b·v*.  Then
    ker(chi|span B) is spanned by ord(v*)·b* and the b - q_b·b*, as
    sum a_b·b has chi (sum a_b·q_b)·v*.  With j0 and j1 the first and
    last pivot of B, the state drops its pivot rows from j0 to j1 and
    pushes those rows of ker(chi|span B) and the A rows it dropped
    (``replace``); a record row is a unit multiple of its pivot row (its
    scale is prime to p), so either spans the same.

    The state keeps the Howell property.  The rows after j1 are a suffix
    of its pivot rows, so they keep it among themselves.  The pushed rows
    vanish before j0, so the push runs on them as on a state of its own,
    and the rows T it leaves from j0 on have the Howell property for
    ker(chi|span S), S the old rows from j0 on: those of S outside B lie
    in A.  A row a before j0 lies in A, and the multiple of a that clears
    its pivot lies in the span of the rows after it; minus its part before
    j0, in A too, it lies in span S with chi 0, so in span T, whose pivots
    come after a's.  So every row before j0 keeps the property, and it is
    the same tuple object in the next record.  Dropping the B rows alone
    is not enough: an A row between j0 and j1 may need a B row to clear
    its pivot.
    """
    chi, L, n = _splitting_character(word, moduli, order), lcm(*moduli), len(moduli)
    # chi_j, in reversed column n - 1 - j, is 0 wherever word_j is.
    weights = [(n - 1 - j, c * (L // moduli[j])) for j, c in enumerate(chi) if c]
    rows, columns, _ = record
    values = [sum(row[i] * w for i, w in weights) % L for row in rows]
    split = [i for i, v in enumerate(values) if v]
    if not split:
        return  # no row reaches chi: the caller's order check fails
    star = min(split, key=lambda i: gcd(values[i], L))
    g = gcd(values[star], L)
    unit = pow(values[star] // g, -1, L // g)
    reversed_moduli, b = moduli[::-1], rows[star]
    pushed = [rows[i] for i in range(split[0], split[-1] + 1) if not values[i]]
    pushed.append(tuple(L // g * e % m for e, m in zip(b, reversed_moduli)))
    for i in split:
        if i != star:
            q = values[i] // g * unit % (L // g)
            pushed.append(tuple((e - q * f) % m for e, f, m in zip(rows[i], b, reversed_moduli)))
    state.replace(columns[split[0] : split[-1] + 1], pushed)


def cyclic_product_decomposition(code: BlockCode) -> Decomposition:
    """Weakly rectangular decomposition through the primary parts: the
    generators of ``_peel``, checked by ``verify_decomposition`` and
    carrying its certificate; a failure raises DecompositionError."""
    return _verified(code, _peel(code))


def _peel(code: BlockCode) -> list[DecompositionGenerator]:
    """The primary cyclic generators of the code, prime by prime.

    The code splits into primary parts column by column
    (``_primary_state``); inside each p-part, generators of maximal order
    realizable in the smallest prefix window are peeled off as direct
    factors via splitting characters, and each is embedded back as
    e·u mod m per column.  Each part is one Howell kernel state on its
    column-reversed rows, read as its unfinished ``record``, and each
    peel step replaces the few rows its splitting character meets
    (``_peel_complement``), with no Howell form, no finish and no code
    built.  The peel always succeeds: in a finite abelian p-group an
    element of maximal order generates a direct summand (Fuchs, *Infinite
    Abelian Groups* I, §27), and the splitting character exhibits the
    complement.  Each generator is the lexicographically least word of
    maximal order in its window, found by descent over the Howell rows of
    the window, so no codeword is enumerated, and the window and the word
    depend on the part's span only, not on the basis the state holds.

    Each peel must leave a complement of order |part| / ord(word), the
    last running product of the next record; one that does not raises
    DecompositionError, so the loop ends within log2 |C| peels.
    """
    gens: list[DecompositionGenerator] = []
    moduli, offsets = code.space.flat_moduli, code.space.offsets()
    for p in FiniteAbelianGroup(moduli).primes():
        state, columns = _primary_state(code, p)
        parts = tuple(q for q, _ in columns)
        record, kept = state.record(), {}
        while record[0]:
            orders = _row_orders(record, parts, kept)
            word, order = _max_order_in_smallest_window(record, orders, parts, offsets, p)
            embedded = tuple(e * u % m for e, (_, u), m in zip(word, columns, moduli))
            gens.append(DecompositionGenerator(embedded, *code.space.support(embedded), order, p))
            expected = record[2][-1] // order
            _peel_complement(state, record, parts, word, order)
            record = state.record()
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
