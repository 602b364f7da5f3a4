"""Reference twins of library kernels, kept for tests and timing only.

* ``integer_smith_diagonal``: the Smith diagonal of an integer matrix,
  with no transform; the library computes no Smith form, and
  ``structure.coprime_rectangular`` takes its cyclic factors from the
  code's own peel (``structure._peel``) instead.
* ``smith_quotient_invariants``: invariant factors of a quotient by the
  integer Smith normal form of its relation lattice
  (``relation_lattice``), the route ``linalg.quotient_invariants`` took
  before it counted on Howell forms.
* ``loop_pairs_to_zero``: the pairing test residue by residue, the loop
  ``duality.pairs_to_zero`` ran before it folded the weights into x.
* ``order_split_everywhere``: the order split at one (l, n) by a split
  graph, one ``head_solve`` per code row and one scaled split graph per
  level, the route ``control.order_profile`` took before it compared span
  orders (``control._order_splits``); ``scale_rows`` is its helper.
* ``stepwise_directness``: the directness steps of a decomposition, each
  read off the span of one more generator prefix, the route
  ``structure.verify_decomposition`` took on every input before it
  checked one span of all the generators first.
* ``code_peel_decomposition``: the cyclic product decomposition with
  every peel step on codes, the route
  ``structure.cyclic_product_decomposition`` took before it kept each
  primary part as column-reversed Howell rows: the part is built forward
  (``code_primary_part``), the window search reads the current code's
  reversed Howell form and fills its prefix table up to the window
  (``code_max_order_word``), and each complement is a new code
  (``code_peel_complement``).
* ``graph_splitting_character``: the peel's splitting character as a
  particular solution of its character graph reduced in the solution
  coset by the kernel's Howell form, the route ``structure._peel`` took
  (through ``linalg._head_solve_kernel``, one Howell form for both)
  before ``structure._splitting_character`` solved it greedily in closed
  form; ``meet_peel_complement`` is the complement it gives, as the meet
  of the code with the character's annihilator.
* ``graph_annihilator``: the annihilator of a row span as the head
  kernel of its graph (``linalg._annihilator_graph``), whose Howell form
  is a cache entry of its own, the route ``linalg.annihilator_rows`` took
  before it asked the Howell cache for the annihilator of the rows
  themselves and kept only the graph's head-vanishing tails.
* ``per_end_prefix_annihilator``: C-perp ∩ [0, b) as the kernel of the
  prefix projection, padded with zeros, one kernel per end b, the route
  ``window_annihilator(code, 0, b)`` took before it read the prefix
  table of the code's one local dual.
* ``suffix_projection_code``: proj_[a,N) C as a code of its own, with its
  own space and Howell form, the route the window readers took before
  each suffix projection was a pivot record (``BlockCode._suffix``), and,
  as a pivot record, before the records were filled by one trimming
  sweep: one Howell form per start.
* ``own_table_matched_duals``: the duals of the duality report's matched
  sides with T = D-perp a code of its own, which reads its own prefix
  table, and each side dualized at every gap, the route
  ``observe._matched_duals`` took before the local dual's local dual was
  the code, the two sides one kept chain, and each distinct side one
  object, dualized once.
* ``cut_duality_windows``: the window checks and chain verdict of the
  duality report with every projection of the dual a cut copy of its
  rows, kept in one dict, and every nested containment tested on every
  row, cut and hashed again, the route
  ``observe.check_control_observe_duality`` took before one walk per
  start paired the rows of the dual's suffix record uncut and tested only
  the rows each end adds.
* ``ReferenceWindows``: the windows, settle steps and weak and strong
  verdicts of a convolutional code by the route
  ``groupcodes.convolutional`` took before its one window engine: each
  chain settled on full windows of length s, s + 1, ..., s + j* + 1 and
  read off one long window j* symbols longer, the code and strong-index
  windows built tap-local and forward, and one cut window kept per code
  and rebuilt by a longer read; ``direct_window`` is its builder.
* ``FinishedPrefixTable``: the prefix table with every end of its sweep
  finished, the route ``codes._PrefixTable`` took before its entries
  were the state's unfinished ``record``.
* ``reversed_howell_code``: a code built from its column-reversed Howell
  rows by finishing every end of their prefix table's sweep, the route
  ``convolutional.strong_controllability_index`` took to each tap-local
  window (with ``control_profile`` of that code) before it counted on the
  orders of one unfinished sweep (``codes._PrefixTable.order``).
* ``reduce_vector``: the reducer before the pivot record, which rescans
  each row's pivot column on every call (``linalg._reduce_vector`` reads
  the columns its caller holds), and ``pivot_record``: a Howell form's
  pivot columns and running pivot-order products by a scan of its own,
  as ``BlockCode`` found them before ``linalg._entry``.
* ``pairwise_reachable_set``, ``fraction_annihilator`` and
  ``triple_loop_order_profile``: the oracle's reachable set, annihilator
  and order profile by the routes ``groupcodes.oracle`` took before each
  was one pass over the words: the reachable set by the double loop over
  (c, w), the annihilator pairing each character with the words until one
  fails, summing ``Fraction``s, and the order profile by the triple loop
  over (n, c, c1), each c2 = c - c1 looked up in the word set (its search
  over n is bounded by N here).
* ``stacked_controllable_subcode``: the gap-L controllable subcode as one
  Howell form of the stacked rows of its windows, every window row
  stacked again at every gap, the route ``control.controllable_subcode``
  took before it read the code's one chain of sums, climbed once and
  kept as a tuple (``codes._subcode_chain``).
* ``line_by_line_parse_spec``: the spec parser with every ``symbols:``
  token parsed and factored where it stands and every ``generator`` and
  ``tap`` line read token by token by the positioned checker, the route
  ``specfmt.parse_spec`` took before one check over each line accepted
  it and only a failed line went to that checker.
* ``spans_equal``: span equality by Howell forms, which no analysis asks.
* ``solve_congruence_system``: one solution of y · A = b with the kernel,
  which no analysis asks either.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from groupcodes import linalg, structure
from groupcodes.codes import (
    BlockCode,
    SequenceSpace,
    _internal,
    _PrefixTable,
    _projection,
    code_from_generators,
    intersect,
    window_internal,
)
from groupcodes.control import control_profile
from groupcodes.convolutional import (
    REPORT_WINDOWS,
    ConvolutionalCode,
    StrongControllabilityVerdict,
    WeakControllabilityVerdict,
)
from groupcodes.duality import dual_block_code, is_annihilator
from groupcodes.groups import FiniteAbelianGroup, primary_part
from groupcodes.linalg import (
    ResidueMatrix,
    Vector,
    _annihilator_graph,
    _first_nonzero,
    _reduce_vector,
    _trusted,
    annihilator_rows,
    contains_vector,
    coset_reduce,
    head_kernel,
    head_solve,
    homomorphism_graph,
    howell_form,
    residue_matrix,
    vector_order,
)
from groupcodes.observe import WindowDualityCheck
from groupcodes.oracle import EnumeratedCode, _ambient_words, _word_order
from groupcodes.specfmt import (
    CodeSpecDocument,
    SpecError,
    _parse_bracket_group,
    _parse_vector_groups,
)
from groupcodes.structure import Decomposition, DecompositionGenerator


def integer_smith_diagonal(rows: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    The matrix is diagonalized by unimodular row and column operations,
    with no transform kept.  Entries are nonnegative with each dividing
    the next.  For a relation matrix this diagonal presents the cokernel.
    """
    mat = [list(map(int, row)) for row in rows]
    n = len(mat)
    m = len(mat[0]) if mat else 0

    def row_combine(i: int, k: int, s: int, t: int, u: int, v: int) -> None:
        # rows (i, k) <- (s*ri + t*rk, u*ri + v*rk), with sv - tu = 1.
        for j in range(m):
            a, b = mat[i][j], mat[k][j]
            mat[i][j] = s * a + t * b
            mat[k][j] = u * a + v * b

    def col_combine(j: int, k: int, s: int, t: int, u: int, v: int) -> None:
        for i in range(n):
            a, b = mat[i][j], mat[i][k]
            mat[i][j] = s * a + t * b
            mat[i][k] = u * a + v * b

    size = min(n, m)
    for t in range(size):
        while True:
            pivot = None
            best = None
            for i in range(t, n):
                for j in range(t, m):
                    e = abs(mat[i][j])
                    if e and (best is None or e < best):
                        best, pivot = e, (i, j)
            if pivot is None:
                break
            i, j = pivot
            mat[t], mat[i] = mat[i], mat[t]
            for row in mat:
                row[t], row[j] = row[j], row[t]
            for i in range(t + 1, n):
                if mat[i][t]:
                    a, b = mat[t][t], mat[i][t]
                    if b % a == 0:
                        # Plain subtraction keeps the pivot row fixed.
                        row_combine(t, i, 1, 0, -(b // a), 1)
                    else:
                        g, s, tt = linalg._egcd(a, b)
                        row_combine(t, i, s, tt, -(b // g), a // g)
            for j in range(t + 1, m):
                if mat[t][j]:
                    a, b = mat[t][t], mat[t][j]
                    if b % a == 0:
                        col_combine(t, j, 1, 0, -(b // a), 1)
                    else:
                        g, s, tt = linalg._egcd(a, b)
                        col_combine(t, j, s, tt, -(b // g), a // g)
            if any(mat[i][t] for i in range(t + 1, n)) or any(
                mat[t][j] for j in range(t + 1, m)
            ):
                continue
            offender = next(
                (i for i in range(t + 1, n) if any(mat[i][j] % mat[t][t] for j in range(t + 1, m))),
                None,
            )
            if offender is None:
                break
            # Fold the offending row into row t; the next gcd pass strictly
            # shrinks the pivot, so this terminates.
            row_combine(t, offender, 1, 1, 0, 1)
    return [abs(mat[i][i]) for i in range(size)]


def smith_quotient_invariants(
    numerator: ResidueMatrix, denominator_rows: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    """Invariant factors of (span(numerator) + D) / D by Smith: the nonunit
    diagonal entries of the relations among the numerator's Howell rows
    modulo D."""
    canon = howell_form(numerator)
    if not canon.rows:
        return ()
    den = [linalg._reduced(row, canon.moduli) for row in denominator_rows]
    diag = integer_smith_diagonal(relation_lattice(canon.rows, den, canon.moduli))
    return tuple(sorted(d for d in diag if d not in (0, 1)))


def relation_lattice(
    gens: Sequence[Vector], extra: Sequence[Vector], moduli: Vector
) -> list[list[int]]:
    """Integer relations among ``gens`` modulo span(``extra``), one row per
    generator: a column per lifted kernel element, restricted to the
    coefficients of ``gens``, plus exponent times the standard lattice."""
    exponent = lcm(*moduli)
    combined = list(gens) + list(extra)
    graph = linalg.homomorphism_graph(combined, tuple(exponent for _ in combined), moduli)
    k = len(gens)
    cols = [row[:k] for row in head_kernel(graph, len(moduli)).rows]
    cols.extend([exponent if i == j else 0 for i in range(k)] for j in range(k))
    return [[col[r] for col in cols] for r in range(k)]


def loop_pairs_to_zero(
    xs: Sequence[Sequence[int]], ys: Sequence[Sequence[int]], moduli: Sequence[int]
) -> bool:
    """Whether every x pairs to zero with every y, one residue at a time."""
    L = lcm(*moduli)
    weighted = [[e * (L // m) for e, m in zip(x, moduli)] for x in xs]
    return all(
        sum(a * b for a, b in zip(x, y)) % L == 0 for y in ys if any(y) for x in weighted
    )


def scale_rows(matrix: ResidueMatrix, scalar: int) -> ResidueMatrix:
    """Generators of ``scalar * span``, which equals the span of scaled rows."""
    return residue_matrix(
        [[scalar * e for e in row] for row in matrix.rows], matrix.moduli
    )


def order_split_everywhere(
    code: BlockCode,
    prefix: BlockCode,
    suffix: BlockCode,
    n: int,
    levels: Sequence[int],
) -> bool:
    """Whether every codeword order-splits at (l, n), suffix = C ∩ [l, N).

    Let P = prefix, S = suffix and M = P ∩ S.  Rows with pivot at or after
    the cut lie in C ∩ [n, N) ⊆ S, so C = P + S when each earlier Howell
    row r splits as r = φ(r) + s with φ(r) in P and s in S.  Splits of one
    word differ by elements of M, so φ extends to a homomorphism C → P / M
    whose cosets φ(c) + M hold the prefix parts of c.  The order condition
    at t is t·φ(O_t) ⊆ t·M, O_t = {c : t·c|[0, n) = 0}; t·φ(O_t) is the
    head kernel of the rows [t·r|[0, n) | t·φ(r)].  One Howell form gives
    φ and M: the rows [p | p] and [s | 0] span {(x + y, x) : x in P,
    y in S}.
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


def stepwise_directness(space: SequenceSpace, words: Sequence[Sequence[int]]) -> tuple[bool, ...]:
    """Whether <y_1..y_j> meets <y_{j+1}> trivially, for j = 1..k-1, each
    as |<y_1..y_{j+1}>| = |<y_1..y_j>| · ord(y_{j+1}) on one span per
    generator prefix."""
    steps = []
    rows, before = (), 1
    for j, word in enumerate(words):
        spanned = code_from_generators(space, rows + (tuple(word),))
        if j:
            steps.append(spanned.cardinality == before * vector_order(word, space.flat_moduli))
        rows, before = spanned.basis.rows, spanned.cardinality
    return tuple(steps)


def code_primary_part(code: BlockCode, p: int) -> tuple[BlockCode, list[tuple[int, int]]]:
    """The code's p-primary part as a code over the p-parts of its
    symbols, with the ``primary_part`` pair (q, u) of each column; the
    code itself when every modulus is a power of p."""
    columns = [primary_part(m, p) for m in code.space.flat_moduli]
    if all(q == m for (q, _), m in zip(columns, code.space.flat_moduli)):
        return code, columns
    symbols = code.space.split([q for q, _ in columns])
    part = SequenceSpace(tuple(FiniteAbelianGroup(qs) for qs in symbols))
    rows = ([e % q for e, (q, _) in zip(row, columns)] for row in code.basis.rows)
    return code_from_generators(part, rows), columns


def code_smallest_full_prefix(current: BlockCode, exponent: int) -> int:
    """The least n with C ∩ [0, n) of exponent ``exponent``, that of C,
    walking the code's column-reversed Howell rows from the end."""
    if current.space.horizon == 1:
        return 1
    reversed_moduli = current.space.flat_moduli[::-1]
    reached = 1
    for row in reversed(current._reversed_howell):
        reached = lcm(reached, vector_order(row, reversed_moduli))
        if reached == exponent:
            break
    last = len(reversed_moduli) - 1 - _first_nonzero(row)
    return bisect_right(current.space.offsets(), last)


def code_max_order_word(current: BlockCode, p: int) -> tuple[tuple[int, ...], int]:
    """The least word of maximal order in the smallest prefix window of
    the p-group ``current``, by descent over the window's Howell rows,
    read off the code's prefix table."""
    exponent = lcm(*(vector_order(row, current.basis.moduli) for row in current.basis.rows))
    inner = window_internal(current, 0, code_smallest_full_prefix(current, exponent))
    moduli = current.space.flat_moduli
    below = exponent // p
    rows = inner.basis.rows
    word = (0,) * len(moduli)
    for i, (row, (j, order)) in enumerate(zip(rows, inner.pivots())):
        later = any((below * e) % m for r in rows[i + 1 :] for e, m in zip(r, moduli))
        for value in range(word[j] % row[j], moduli[j], row[j]):
            a = (value - word[j]) // row[j] % order
            y = tuple((w + a * e) % m for w, e, m in zip(word, row, moduli))
            if later or any((below * e) % m for e, m in zip(y, moduli)):
                word = y
                break
    return word, exponent


def graph_splitting_character(word: Sequence[int], moduli: Vector, order: int) -> Vector:
    """The splitting character of <word>, of order ``order``, on the
    shortest prefix of ``moduli`` on which the word has its full order:
    one particular solution of sum_j chi_j·word_j·(L/m_j) = L/order
    (mod L) off the character graph (``head_solve``), reduced in its
    solution coset by the Howell form of the graph's kernel
    (``coset_reduce``)."""
    L = lcm(*moduli)
    for prefix in range(1, len(moduli) + 1):
        if vector_order(word[:prefix], moduli[:prefix]) != order:
            continue
        images = [[(e * (L // m)) % L] for e, m in zip(word[:prefix], moduli[:prefix])]
        graph = homomorphism_graph(images, moduli[:prefix], (L,))
        chi = head_solve(graph, 1, (L // order,))
        if chi is not None:
            return coset_reduce(head_kernel(graph, 1), chi)
    raise AssertionError("no splitting character; order below exponent")


def meet_peel_complement(current: BlockCode, word: Sequence[int], order: int) -> BlockCode:
    """The complement of <word> in ``current`` as the meet of ``current``
    with the annihilator of its splitting character."""
    moduli = current.space.flat_moduli
    chi = graph_splitting_character(word, moduli, order)
    chi_perp = annihilator_rows(residue_matrix([chi + (0,) * (len(moduli) - len(chi))], moduli))
    return intersect(current, BlockCode.from_howell(current.space, chi_perp.rows))


def code_peel_complement(current: BlockCode, word: Sequence[int], order: int) -> BlockCode:
    """The complement of <word> in ``current`` as a new code: the
    vanishing-head read of [chi(r) | r] over the code's forward Howell
    rows, for the splitting character chi of the graph route."""
    moduli = current.space.flat_moduli
    L = lcm(*moduli)
    chi = graph_splitting_character(word, moduli, order)
    weights = [c * (L // m) for c, m in zip(chi, moduli)]
    rows = tuple(
        (sum(e * w for e, w in zip(row, weights)) % L,) + row for row in current.basis.rows
    )
    kernel = head_kernel(_trusted((L,) + moduli, rows), 1)
    return BlockCode.from_howell(current.space, kernel.rows)


def code_peel_decomposition(code: BlockCode) -> Decomposition:
    """The cyclic product decomposition by the complement-code route,
    verified, with its certificate."""
    gens = []
    moduli = code.space.flat_moduli
    for p in FiniteAbelianGroup(moduli).primes():
        current, columns = code_primary_part(code, p)
        while current.cardinality > 1:
            word, order = code_max_order_word(current, p)
            embedded = tuple(e * u % m for e, (_, u), m in zip(word, columns, moduli))
            start, stop = code.space.support(embedded)
            gens.append(DecompositionGenerator(embedded, start, stop, order, p))
            current = code_peel_complement(current, word, order)
    return structure._verified(code, gens)


def graph_annihilator(matrix: ResidueMatrix) -> ResidueMatrix:
    """Howell rows of the annihilator of span(matrix): the head kernel of
    its graph, one head column per row of ``matrix``."""
    return head_kernel(_annihilator_graph(matrix), len(matrix.rows))


def per_end_prefix_annihilator(code: BlockCode, b: int) -> tuple[Vector, ...]:
    """Howell rows of C-perp ∩ [0, b): the local dual of the prefix
    projection (a cut of C's rows, so no projection Howell form), padded
    with zeros after offset(b).  A character supported in [0, b)
    annihilates C exactly when its window part annihilates proj_[0,b) C."""
    if b == 0:
        return ()
    cut = code.space.offsets()[b]
    prefix = _trusted(code.basis.moduli[:cut], _projection(code, 0, b)[0])
    after = (0,) * (code.basis.width - cut)
    return tuple(row + after for row in annihilator_rows(prefix).rows)


def suffix_projection_code(code: BlockCode, a: int) -> BlockCode:
    """proj_[a,N) C in the space of [a, N), a code of its own: one Howell
    form of C's rows cut at offset(a)."""
    sub = code.space.window(a, code.space.horizon)
    start = code.space.offsets()[a]
    return BlockCode(sub, _trusted(sub.flat_moduli, tuple(row[start:] for row in code.basis.rows)))


def stacked_controllable_subcode(code: BlockCode, L: int) -> BlockCode:
    """cs_L: one Howell form of the stacked rows of the windows
    C ∩ [k, k+L+1), clipped to the horizon, each read off the prefix-table
    entry of its end (``codes._internal``)."""
    N = code.space.horizon
    rows = tuple(row for k in range(N) for row in _internal(code, k, min(k + L + 1, N)))
    return BlockCode(code.space, _trusted(code.basis.moduli, rows))


def own_table_matched_duals(code: BlockCode) -> tuple[list[BlockCode], list[BlockCode]]:
    """The duals of cs_L = ``controllable_subcode(code, L)`` and of
    S_L = ``controllable_subcode(T, L)`` at each gap, each side built up
    to its top and then repeated.  T = D-perp is one kernel of D's rows
    made a code of its own and seeded as D's local dual, so the sums read
    T's prefix table; each gap is one Howell form of its stacked window
    rows (``stacked_controllable_subcode``), and every side is dualized at
    each gap, and T too."""
    N = code.space.horizon
    dual = code._local_dual
    top = BlockCode.from_howell(code.space, annihilator_rows(dual.basis).rows)
    dual.__dict__["_local_dual"] = top

    def duals_to_top(side, top: BlockCode, top_dual: Optional[BlockCode] = None) -> list:
        duals = []
        for L in range(N):
            x = side(L)
            if x.basis.rows == top.basis.rows:
                return duals + [dual_block_code(x) if top_dual is None else top_dual] * (N - L)
            duals.append(dual_block_code(x))
        return duals

    subcodes = duals_to_top(lambda L: stacked_controllable_subcode(code, L), code, dual)
    sums = duals_to_top(lambda L: stacked_controllable_subcode(top, L), top)
    return subcodes, sums


def cut_duality_windows(code: BlockCode) -> tuple[tuple[WindowDualityCheck, ...], bool]:
    """The window checks and the chain verdict of the duality report of
    ``code``: every projection proj_[a,b) D of the dual read as a cut copy
    of its rows (``codes._projection``) into one dict, and each nested
    containment proj_[k,b+1) D, cut to [k, b), in proj_[k,b) D tested on
    every row, cut and hashed again.  The route
    ``observe.check_control_observe_duality`` took before one walk per
    start read the rows of D's suffix record uncut
    (``observe._window_walk``)."""
    N = code.space.horizon
    dual = code._local_dual
    moduli, offsets = code.space.flat_moduli, code.space.offsets()
    proj = {(a, b): _projection(dual, a, b) for a in range(N) for b in range(a + 1, N + 1)}
    window_checks = []
    for (a, b), (rows, order) in proj.items():
        inner, inner_order = _internal(code, a, b), code._prefixes.order(a, b)
        lo, hi = offsets[a], offsets[b]
        ok = is_annihilator([row[lo:hi] for row in inner], inner_order, rows, order, moduli[lo:hi])
        window_checks.append(WindowDualityCheck(a, b, ok))

    def within(words, rows, columns, lo: int, hi: int) -> bool:
        window, known = moduli[lo:hi], {*rows, (0,) * (hi - lo)}
        return all(w in known or not any(_reduce_vector(rows, columns, window, w)) for w in words)

    def prefix_nested(b: int) -> bool:
        inner, outer = code._prefix(b), code._prefix(b + 1)
        return inner is outer or within(inner[0], outer[0], outer[1], 0, len(moduli))

    def nested(k: int, b: int) -> bool:
        # The suffix record keeps the space's columns; the cut rows are in
        # the window's, so its pivot columns are shifted by offset(k).
        lo, hi = offsets[k], offsets[b]
        cuts = [row[: hi - lo] for row in proj[k, b + 1][0]]
        rows = proj[k, b][0]
        columns = tuple(j - lo for j in dual._suffix(k)[1][: len(rows)])
        return within(cuts, rows, columns, lo, hi)

    chain_ok = all(prefix_nested(b) for b in range(N)) and all(
        nested(k, b) for k in range(N) for b in range(k + 1, N)
    )
    return tuple(window_checks), chain_ok


def _all_shift_rows(conv: ConvolutionalCode, n: int, cut: bool) -> tuple[Vector, ...]:
    """The shifts of the taps on [0, n), all cut at the boundary or only
    those inside, as flat rows over G^n."""
    width = len(conv.symbol.moduli)
    shifts, size = [], n * width
    for tap in conv.taps:
        flat = tuple(e for step in tap for e in step)
        for s in range(n if cut else n - len(tap) + 1):
            shifts.append(((0,) * (s * width) + flat + (0,) * size)[:size])
    return tuple(shifts)


def direct_window(conv: ConvolutionalCode, n: int, cut: bool) -> BlockCode:
    """The shifts of the taps on [0, n), all cut at the boundary or only
    those inside: their span, or in kernel form their annihilator."""
    space = SequenceSpace((conv.symbol,) * n)
    rows = _trusted(space.flat_moduli, _all_shift_rows(conv, n, cut))
    if conv.form == "image":
        return BlockCode(space, rows)
    return BlockCode.from_howell(space, annihilator_rows(rows).rows)


class FinishedPrefixTable(_PrefixTable):
    """The prefix table as it was filled before its entries were weak
    Howell forms: the same sweep of one Howell state, finished after each
    end that takes in rows, so every entry is the Howell form of
    C ∩ [0, b) with its pivot record."""

    def entry(self, b: int):
        entries, moduli = self.entries, self.space.flat_moduli
        while len(entries) <= b:
            stepped = self._step(len(entries))
            entries.append(pivot_record(self.state.finish(), moduli) if stepped else entries[-1])
        return entries[b]


def _reversed_window(conv: ConvolutionalCode, n: int, cut: bool) -> FinishedPrefixTable:
    """``direct_window(conv, n, cut)`` built straight into reversed form,
    as the finished prefix table of its column-reversed Howell rows."""
    space = SequenceSpace((conv.symbol,) * n)
    shifts = tuple(row[::-1] for row in _all_shift_rows(conv, n, cut))
    rows = _trusted(space.flat_moduli[::-1], shifts)
    canon = howell_form(rows) if conv.form == "image" else annihilator_rows(rows)
    return FinishedPrefixTable(space, canon.rows)


def reversed_howell_code(space: SequenceSpace, rows: tuple[Vector, ...]) -> BlockCode:
    """The code whose column-reversed Howell rows are ``rows``: the sweep
    of their finished prefix table, kept on the code, ends in its forward
    Howell rows and their record, so no second Howell form is taken."""
    table = FinishedPrefixTable(space, rows)
    record = table.entry(space.horizon)
    code = BlockCode.from_howell(space, record[0])
    code.__dict__.update(_record=record, _reversed_howell=rows, _prefixes=table)
    return code


class ReferenceWindows:
    """One code's windows by the route before the window engine, with the
    state that route kept on the code (settled chains, the cut window)
    kept on this object instead, so a new object starts cold.

    Chains, by name, as (window builder, past): each settles at the first
    repeat of read(build(s + j), s), j = 0, 1, ..., and keeps one long
    window of length reads + j* + past * s; a read n > reads builds its
    own.  past = 1 reads the words vanishing from n on.  The finite-support
    chain reads the kept cut window's prefix table ("finite support"), or
    direct cut windows ("direct finite support").
    """

    def __init__(self, conv: ConvolutionalCode) -> None:
        self.conv, self.settled, self.kept = conv, {}, []
        self.reads = max(conv.state_length, min(conv.analysis_horizon, REPORT_WINDOWS))
        self.chains = {
            "code": (lambda n: direct_window(conv, n, False), 0),
            "finite support": (self.cut_code, 0),
            "zero extension": (lambda n: _reversed_window(conv, n, False), 1),
            "direct finite support": (lambda n: direct_window(conv, n, True), 0),
        }

    def cut_kept(self, length: int):
        """The kept cut window, rebuilt at ``length`` when shorter: a code
        in image form, the prefix table of its reversed form in kernel
        form."""
        conv, kept = self.conv, self.kept
        if not kept or kept[0].space.horizon < length:
            first = max(min(conv.analysis_horizon, REPORT_WINDOWS), conv.state_length + 1)
            build = direct_window if conv.form == "image" else _reversed_window
            kept[:] = [build(conv, max(length, first), True)]
        return kept[0]

    def cut_code(self, length: int) -> BlockCode:
        """A code whose windows [0, n), n <= ``length``, are those of the
        cut window of ``length``."""
        kept = self.cut_kept(length)
        if self.conv.form == "image":
            return kept
        return BlockCode.from_howell(kept.space, kept.entry(length)[0])

    def cut_window(self, n: int):
        kept = self.cut_kept(n)
        return _projection(kept, 0, n) if self.conv.form == "image" else kept.vanishing(n)

    def settled_window(self, chain: str, n: int):
        """The window [0, n) of a chain, as rows and order."""
        build, past = self.chains[chain]
        s = self.conv.state_length

        def read(w, b: int):
            return w.vanishing(b) if past else _projection(w, 0, b)

        if chain not in self.settled:
            step, states = 0, read(build(s), s)[0]
            while (following := read(build(s + step + 1), s)[0]) != states:
                step, states = step + 1, following
            self.settled[chain] = step, build(self.reads + step + past * s)
        step, window = self.settled[chain]
        if n > self.reads:
            window = build(n + step + past * s)
        return read(window, n)

    def step(self, chain: str) -> int:
        """The settle step j* of a chain."""
        self.settled_window(chain, 1)
        return self.settled[chain][0]

    def code(self, n: int):
        if self.conv.form == "image":
            return self.cut_window(n)
        return self.settled_window("code", n)

    def zero_extension(self, n: int):
        if self.conv.form == "kernel":
            return self.cut_window(n)
        return self.settled_window("zero extension", n)

    def finite_support(self, n: int):
        return self.settled_window("finite support", n)

    def weak_controllability(self) -> WeakControllabilityVerdict:
        conv = self.conv
        N = conv.analysis_horizon
        if conv.form == "image":
            return WeakControllabilityVerdict(holds=True, horizon=N)
        for n in range(1, min(N, conv.state_length) + 1):
            full, inner = self.code(n)[1], self.finite_support(n)[1]
            if full != inner:
                return WeakControllabilityVerdict(False, N, n, full, inner)
        return WeakControllabilityVerdict(holds=True, horizon=N)

    def weak_observability(self) -> WeakControllabilityVerdict:
        conv = self.conv
        N = conv.analysis_horizon
        if conv.form == "kernel":
            return WeakControllabilityVerdict(holds=True, horizon=N)
        dual = ReferenceWindows(conv._dual)
        for n in range(1, min(N, conv.state_length) + 1):
            finite, finite_order = self.zero_extension(n)
            dual_part, dual_order = dual.finite_support(n)
            moduli = conv.symbol.moduli * n
            if not is_annihilator(finite, finite_order, dual_part, dual_order, moduli):
                closure = conv.symbol.cardinality**n // dual_order
                return WeakControllabilityVerdict(False, N, n, closure, finite_order)
        return WeakControllabilityVerdict(holds=True, horizon=N)

    def strong_controllability_index(self) -> StrongControllabilityVerdict:
        """The agree-twice search on forward tap-local windows."""
        conv = self.conv
        weak, N = self.weak_controllability(), conv.analysis_horizon
        if not weak.holds:
            return StrongControllabilityVerdict("not-controllable", None, N, weak.witness)
        index = previous = None
        for n in range(min(max(2 * conv.memory, 2), N), N + 1):
            current = control_profile(direct_window(conv, n, False)).index
            if current == previous:
                index = current
                break
            previous = current
        status = "unknown-beyond-horizon" if index is None else "stabilized"
        return StrongControllabilityVerdict(status, index, N)


def _supported_in(word, offsets, a, b):
    horizon = len(offsets) - 1
    return all(
        not any(word[offsets[i] : offsets[i + 1]])
        for i in range(horizon)
        if i < a or i >= b
    )


def pairwise_reachable_set(enum: EnumeratedCode, k: int, L: int):
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


def _fraction_pairs_to_zero(x, chi, moduli):
    total = Fraction(0)
    for a, b, m in zip(x, chi, moduli):
        total += Fraction(a * b, m)
    return total % 1 == 0


def fraction_annihilator(enum: EnumeratedCode, bound: int):
    """All characters orthogonal to every codeword."""
    return tuple(
        chi
        for chi in _ambient_words(enum.moduli, bound)
        if all(_fraction_pairs_to_zero(x, chi, enum.moduli) for x in enum.words)
    )


def triple_loop_order_profile(enum: EnumeratedCode):
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
        for n in range(l, horizon + 1):
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
        else:
            raise AssertionError(f"no order split at l = {l}")
    return tuple(bounds)


def spans_equal(a: ResidueMatrix, b: ResidueMatrix) -> bool:
    """Whether two matrices span the same subgroup: equal Howell forms."""
    return howell_form(a).rows == howell_form(b).rows


@dataclass(frozen=True)
class CongruenceSolution:
    """One solution of ``y . A = b`` plus a Howell basis of the kernel."""

    particular: Vector
    kernel: ResidueMatrix


def solve_congruence_system(
    matrix: ResidueMatrix, target: Sequence[int]
) -> Optional[CongruenceSolution]:
    """Solve ``y . A = b`` over the column moduli of ``A``.

    The unknowns are integer row coefficients ``y_i``, one per row of ``A``;
    only their residues modulo the ambient exponent matter, so the kernel is
    reported over that modulus.  Returns None when ``b`` is not in the row
    span.
    """
    exponent = lcm(*matrix.moduli)
    graph = homomorphism_graph(
        matrix.rows, tuple(exponent for _ in matrix.rows), matrix.moduli
    )
    particular = head_solve(graph, matrix.width, target)
    if particular is None:
        return None
    return CongruenceSolution(particular, head_kernel(graph, matrix.width))


def reduce_vector(canon: ResidueMatrix, vector: Sequence[int]) -> Vector:
    """Clear the pivot-column entries of reduced ``vector`` by the Howell
    rows of ``canon``, each row's pivot column found by scanning it, each
    step from that column on."""
    moduli = canon.moduli
    v = list(vector)
    for row in canon.rows:
        j = _first_nonzero(row)
        q = v[j] // row[j]
        if q:
            v[j:] = [(x - q * y) % m for x, y, m in zip(v[j:], row[j:], moduli[j:])]
    return tuple(v)


def pivot_record(
    rows: Sequence[Vector], moduli: Sequence[int]
) -> tuple[tuple[Vector, ...], tuple[int, ...], tuple[int, ...]]:
    """Howell ``rows`` with their pivot columns, each the first nonzero
    entry, and the running products from 1 of their pivot orders."""
    columns = tuple(next(j for j, e in enumerate(row) if e) for row in rows)
    orders = (moduli[j] // row[j] for j, row in zip(columns, rows))
    return tuple(rows), columns, tuple(accumulate(orders, mul, initial=1))


def line_by_line_parse_spec(text: str) -> CodeSpecDocument:
    """``specfmt.parse_spec`` with every ``symbols:`` token parsed where it
    stands and every ``generator`` and ``tap`` line read by the positioned
    checker (``specfmt._parse_vector_groups``)."""
    entries: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise SpecError("expected 'key: value'", lineno)
        key, value = line.split(":", 1)
        entries.append((lineno, key.strip(), value.strip()))
    if not entries:
        raise SpecError("empty document")
    fields = {}
    for lineno, key, value in entries:
        fields.setdefault(key, []).append((lineno, value))
    single = {"kind", "symbols", "symbol", "form", "horizon"}
    for key, given in fields.items():
        if key not in single | {"generator", "tap"}:
            raise SpecError("unknown key", given[0][0], key)
        if key in single and len(given) > 1:
            raise SpecError(f"repeated; first given on line {given[0][0]}", given[1][0], key)
    if "kind" not in fields:
        raise SpecError("missing 'kind'", field="kind")
    kind_line, kind = fields["kind"][0]
    if kind not in ("block", "convolutional"):
        raise SpecError(f"kind must be block or convolutional, got {kind!r}", kind_line, "kind")

    if kind == "block":
        for forbidden in ("symbol", "form", "tap", "horizon"):
            if forbidden in fields:
                raise SpecError(
                    "not valid in a block document", fields[forbidden][0][0], forbidden
                )
        if "symbols" not in fields:
            raise SpecError("missing 'symbols'", field="symbols")
        sym_line, sym_value = fields["symbols"][0]
        symbols = tuple(
            _parse_bracket_group(tok, sym_line, "symbols") for tok in sym_value.split()
        )
        if not symbols:
            raise SpecError("at least one symbol group required", sym_line, "symbols")
        generators = tuple(
            _parse_vector_groups(value, symbols, lineno, "generator")
            for lineno, value in fields.get("generator", [])
        )
        return CodeSpecDocument(kind="block", symbols=symbols, generators=generators)

    for forbidden in ("symbols", "generator"):
        if forbidden in fields:
            raise SpecError(
                "not valid in a convolutional document",
                fields[forbidden][0][0],
                forbidden,
            )
    if "symbol" not in fields:
        raise SpecError("missing 'symbol'", field="symbol")
    sym_line, sym_value = fields["symbol"][0]
    tokens = sym_value.split()
    if len(tokens) != 1:
        raise SpecError("exactly one symbol group expected", sym_line, "symbol")
    symbol = _parse_bracket_group(tokens[0], sym_line, "symbol")
    if "form" not in fields:
        raise SpecError("missing 'form'", field="form")
    form_line, form = fields["form"][0]
    if form not in ("image", "kernel"):
        raise SpecError(f"form must be image or kernel, got {form!r}", form_line, "form")
    taps = []
    for lineno, value in fields.get("tap", []):
        steps = value.split()
        parsed = _parse_vector_groups(
            " ".join(steps), [symbol] * len(steps), lineno, "tap"
        )
        taps.append(parsed)
    horizon = None
    if "horizon" in fields:
        h_line, h_value = fields["horizon"][0]
        try:
            horizon = int(h_value)
        except ValueError:
            raise SpecError(f"horizon must be an integer, got {h_value!r}", h_line, "horizon")
        if horizon < 1:
            raise SpecError("horizon must be positive", h_line, "horizon")
    return CodeSpecDocument(
        kind="convolutional",
        symbol=symbol,
        form=form,
        taps=tuple(taps),
        horizon=horizon,
    )
