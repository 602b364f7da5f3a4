"""Sequence spaces and block group codes.

A sequence space is a finite product of symbol groups, one per time index;
a block code is a subgroup of that product held in canonical Howell form,
so membership, equality and the subgroup lattice are all decidable.

Index conventions are 0-based with half-open windows [a, b) throughout.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .groups import FiniteAbelianGroup
from .linalg import (
    Entry,
    ResidueMatrix,
    Vector,
    _counted_invariants,
    _entry,
    _howell_state,
    _reduce_vector,
    _reduced,
    _trusted,
    annihilator_rows,
    howell_form,
    intersect_rows,
    residue_matrix,
    stack,
)

__all__ = [
    "SequenceSpace",
    "BlockCode",
    "code_from_generators",
    "zero_code",
    "ambient_code",
    "intersect",
    "join",
    "window_projection",
    "window_internal",
    "window_annihilator",
    "window_order",
    "annihilator_order",
    "invariant_factors_of_code",
]


class _cached:
    """``functools.cached_property`` without its lock: a non-data descriptor
    storing into ``obj.__dict__``, where reads and pre-seeded entries win."""

    def __init__(self, fn):
        self.fn, self.__doc__ = fn, fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.setdefault(self.name, self.fn(obj))


@dataclass(frozen=True)
class SequenceSpace:
    """A product of symbol groups over time indices 0..N-1, held as a
    tuple whatever sequence is passed."""

    symbols: tuple[FiniteAbelianGroup, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValueError("a sequence space needs at least one index")

    @_cached
    def horizon(self) -> int:
        return len(self.symbols)

    @_cached
    def flat_moduli(self) -> tuple[int, ...]:
        return tuple(m for g in self.symbols for m in g.moduli)

    @_cached
    def _moduli_products(self) -> tuple[int, ...]:
        """Running products of the flat moduli from 1: |G_[a,b)| is
        ``p[offsets[b]] // p[offsets[a]]``."""
        return tuple(itertools.accumulate(self.flat_moduli, operator.mul, initial=1))

    @property
    def cardinality(self) -> int:
        return self._moduli_products[-1]

    def offsets(self) -> tuple[int, ...]:
        """Start offset of each index in the flat coordinate vector."""
        return self._offsets

    @_cached
    def _offsets(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate((len(g.moduli) for g in self.symbols), initial=0))

    def window(self, a: int, b: int) -> "SequenceSpace":
        self.check_window(a, b)
        if a == b:
            raise ValueError("empty window has no ambient space")
        return SequenceSpace(self.symbols[a:b])

    def check_window(self, a: int, b: int) -> None:
        if not 0 <= a <= b <= self.horizon:
            raise ValueError(f"bad window [{a}, {b}) for horizon {self.horizon}")

    def flat_slice(self, a: int, b: int) -> slice:
        offs = self.offsets()
        return slice(offs[a], offs[b])

    def support(self, word: Sequence[int]) -> tuple[int, int]:
        """The least window [lo, hi) outside which a flat word vanishes;
        (0, 0) for the zero word.  The symbols of its first and last
        nonzero entries, found on the offsets."""
        nonzero = [i for i, e in enumerate(word) if e]
        if not nonzero:
            return (0, 0)
        offsets = self.offsets()
        return bisect_right(offsets, nonzero[0]) - 1, bisect_right(offsets, nonzero[-1])

    def split(self, word: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """Per-index residue vectors of a flat word."""
        offs = self.offsets()
        return tuple(
            tuple(word[offs[i] : offs[i + 1]]) for i in range(self.horizon)
        )

    def __str__(self) -> str:
        return " x ".join(f"({g})" for g in self.symbols)


@dataclass(frozen=True)
class BlockCode:
    """A subgroup of a sequence space with a canonical generator matrix.

    Any generating matrix may be passed; the code stores its Howell form, so
    two codes are equal exactly when they are the same subgroup.  Bases that
    are Howell forms by construction come in through ``from_howell``.
    """

    space: SequenceSpace
    basis: ResidueMatrix

    def __post_init__(self) -> None:
        if self.basis.moduli != self.space.flat_moduli:
            raise ValueError("basis moduli do not match the space")
        object.__setattr__(self, "basis", howell_form(self.basis))

    @classmethod
    def from_howell(cls, space: SequenceSpace, rows: Iterable[Vector]) -> "BlockCode":
        """The code whose basis is ``rows``, already a Howell form over the
        moduli of ``space``; stored as given, with no second Howell call."""
        code = object.__new__(cls)
        object.__setattr__(code, "space", space)
        object.__setattr__(code, "basis", _trusted(space.flat_moduli, tuple(rows)))
        return code

    @_cached
    def _reversed_howell(self) -> tuple[Vector, ...]:
        """Howell rows of the code with its columns in reverse order."""
        rows = tuple(row[::-1] for row in self.basis.rows)
        return howell_form(_trusted(self.basis.moduli[::-1], rows)).rows

    @_cached
    def _prefixes(self) -> "_PrefixTable":
        return _PrefixTable(self.space, self._reversed_howell)

    @_cached
    def _subcodes(self) -> tuple["BlockCode", ...]:
        return _subcode_chain(self)

    @_cached
    def _control_lengths(self) -> tuple[int, ...]:
        """The control profile's gap lengths, counted once per code on the
        prefix table's orders (``_gap_lengths``): ``control_profile`` and
        ``order_profile`` both read them."""
        return _gap_lengths(self.space.horizon, self._prefixes.order)

    @_cached
    def _suffixes(self) -> "_SuffixTable":
        return _SuffixTable(self.space, self.basis.rows, self._record)

    @_cached
    def _finished_suffixes(self) -> dict[int, Entry]:
        return {}

    @_cached
    def _local_dual(self) -> "BlockCode":
        """T = C-perp in the code's own space: one kernel of its Howell rows.

        T keeps the code it came from.  The kernel of T's own rows is taken
        and compared with that code's rows, in the same space; when they
        agree (C-perp-perp = C), T's local dual is that code object, so the
        bidual shares its tables and its own local dual.  Rows that differ
        make a code of their own."""
        rows = annihilator_rows(self.basis).rows
        source = self.__dict__.get("_dual_source")
        if source is not None and source.basis.rows == rows:
            return source
        dual = BlockCode.from_howell(self.space, rows)
        dual.__dict__["_dual_source"] = self
        return dual

    @_cached
    def _invariant_factors(self) -> tuple[int, ...]:
        """Invariant factors d_1 | d_2 | ..., counted once per code on its
        Howell rows and order (``linalg._counted_invariants``)."""
        return _counted_invariants(self.basis, (), self.cardinality)

    @_cached
    def _record(self) -> Entry:
        """The basis rows, pivot columns and running pivot-order products
        (``linalg._entry``), found once per code."""
        return _entry(self.basis.rows, self.basis.moduli)

    def _prefix(self, b: int) -> Entry:
        """The record of C ∩ [0, b): the code's own for b = N, with no
        sweep, else entry b of the prefix table (``_PrefixTable.entry``).
        The duality walk reads the table's entry N instead, whose rows
        keep their identity from entry N - 1."""
        if b == self.space.horizon:
            return self._record
        return self._prefixes.entry(b)

    def _suffix(self, a: int) -> Entry:
        """The record of proj_[a,N) C, in the space's own coordinates (its
        rows vanish before offset(a), its pivot columns are the space's):
        the code's own for a = 0, with no sweep, else entry a of the suffix
        table (``_SuffixTable``), a weak Howell form."""
        if a == 0:
            return self._record
        return self._suffixes.entry(a)

    def _finished_suffix(self, a: int) -> Entry:
        """The record of the Howell form of proj_[a,N) C in the coordinates
        of [a, N), for the readers that hand out a canonical basis
        (``_canonical_projection``): the code's own for a = 0, else one
        Howell form of the rows of ``_suffix(a)`` cut at offset(a), taken
        on first use of each start and kept, so all ends of a start share
        it."""
        if a == 0:
            return self._record
        table = self._finished_suffixes
        if a not in table:
            start = self.space.offsets()[a]
            moduli = self.basis.moduli[start:]
            cut = _trusted(moduli, tuple(row[start:] for row in self._suffix(a)[0]))
            table[a] = _entry(howell_form(cut).rows, moduli)
        return table[a]

    @property
    def cardinality(self) -> int:
        return self._record[2][-1]

    def contains(self, word: Sequence[int]) -> bool:
        return not any(self.coset_representative(word))

    def coset_representative(self, word: Sequence[int]) -> tuple[int, ...]:
        """The canonical representative of word + C, reduced against the
        code's Howell rows at their recorded pivot columns."""
        rows, columns, _ = self._record
        moduli = self.basis.moduli
        return _reduce_vector(rows, columns, moduli, _reduced(word, moduli))

    def pivots(self) -> tuple[tuple[int, int], ...]:
        """(pivot column, pivot order) of each basis row, off the record.

        Coefficients below the pivot orders reach every codeword exactly
        once; the rows with pivot at or after a column span the codewords
        vanishing before it.
        """
        _, columns, products = self._record
        return tuple(zip(columns, map(operator.floordiv, products[1:], products)))

    def words(self) -> Iterator[tuple[int, ...]]:
        """All codewords, deterministically ordered by basis coefficients."""
        moduli = self.basis.moduli
        rows = self.basis.rows
        orders = [order for _, order in self.pivots()]
        for coeffs in itertools.product(*[range(o) for o in orders]):
            word = [0] * len(moduli)
            for c, row in zip(coeffs, rows):
                if c:
                    for i, e in enumerate(row):
                        word[i] = (word[i] + c * e) % moduli[i]
            yield tuple(word)

    def is_subcode_of(self, other: "BlockCode") -> bool:
        """Each row of ``self`` reduces to zero against the Howell rows of
        ``other`` (the Howell property makes that membership)."""
        if other.space != self.space:
            raise ValueError("codes live in different spaces")
        return self.basis.rows == other.basis.rows or all(map(other.contains, self.basis.rows))

    def __str__(self) -> str:
        return f"code of order {self.cardinality} in {self.space}"


class _Sweep:
    """A table whose entries 0, 1, ... are filled in order by one Howell
    kernel state (``linalg._howell_state``), never finished: each step
    (``_step``) changes the state, or leaves it alone and shares the entry
    before it.  An entry is the state's ``record``, a weak Howell form
    with its pivot columns and running pivot-order products.  A row that a
    step leaves alone is the same tuple object in the next record."""

    def entry(self, n: int) -> Entry:
        """Entry n, filling the table up to n."""
        entries, state = self.entries, self.state
        while len(entries) <= n:
            entries.append(state.record() if self._step(len(entries)) else entries[-1])
        return entries[n]


class _PrefixTable(_Sweep):
    """The windows C ∩ [0, b) of a subgroup C of ``space``, read off the
    Howell rows of C with its columns reversed.

    In reversed coordinates a word vanishing from offset(b) on vanishes on
    the first width - offset(b) columns, so by the Howell property those
    words are spanned by a suffix of the reversed rows: the rows whose last
    nonzero column (in the space's own order) lies before offset(b).  As b
    grows, C ∩ [0, b) takes in the rows whose last nonzero lies in block
    b - 1, a slice of the reversed rows between the suffixes of ends b and
    b - 1 (``_step``).  There are three reads:

    * ``vanishing(b)`` (one-sided): those rows re-reversed and cut to
      [0, b), with their span's order, a quotient of running products of
      the reversed pivot orders.  The rows span the window but are no
      Howell form in its own order; they are one in reversed order, so two
      reads are equal exactly when the windows are.  No forward form is
      built.
    * ``entry(b)`` (two-sided): a weak Howell form of C ∩ [0, b) with its
      pivot columns and running pivot-order products, the unfinished
      ``record`` of one Howell kernel state that takes the rows end by end
      (``_step``), so the table is filled by one sweep (``_Sweep``) and no
      entry is finished, up to b = N.
    * ``order(a, b)``: |C ∩ [a, b)| off entry b's pivot columns and
      products, with no row sliced: the words of C ∩ [0, b) that vanish
      before a are spanned by the entry's rows with pivot at or after
      offset(a).

    Callers pass windows within the horizon; the window functions check.
    """

    def __init__(self, space: SequenceSpace, reversed_rows: tuple[Vector, ...]) -> None:
        self.space, self.reversed_rows = space, reversed_rows
        moduli = space.flat_moduli[::-1]
        _, self.columns, self.products = _entry(reversed_rows, moduli)
        self.entries: list[Entry] = [((), (), (1,))]  # entries[b], filled in order
        self.state = _howell_state(space.flat_moduli)

    def vanishing(self, b: int) -> tuple[tuple[Vector, ...], int]:
        """Spanning rows and order of C ∩ [0, b), cut to [0, b): the
        reversed rows from the first with pivot at or after
        width - offset(b)."""
        offsets = self.space.offsets()
        head = offsets[-1] - offsets[b]
        i = bisect_left(self.columns, head)
        rows = tuple(row[head:][::-1] for row in self.reversed_rows[i:])
        return rows, self.products[-1] // self.products[i]

    def order(self, a: int, b: int) -> int:
        """|C ∩ [a, b)|, off entry b (``_order``)."""
        return _order(self.entry(b), self.space.offsets()[a])

    def _step(self, b: int) -> bool:
        # End b takes in the reversed rows [i, j): those spanning C ∩ [0, b)
        # (as ``vanishing`` bisects them) that C ∩ [0, b - 1) leaves out.
        offsets = self.space.offsets()
        i, j = (bisect_left(self.columns, offsets[-1] - offsets[e]) for e in (b, b - 1))
        if i == j:
            return False
        self.state.push(row[::-1] for row in self.reversed_rows[i:j])
        return True


class _SuffixTable(_Sweep):
    """The projections proj_[a,N) C of a subgroup C of ``space``, in the
    space's own coordinates: entry a is a weak Howell form of the words of
    C with their entries before offset(a) zeroed.

    One Howell kernel state is seeded with C's Howell rows ``rows``, whose
    record ``whole`` is entry 0.  Going on from start a to a + 1 (the
    state's ``trim``) drops each pivot row with pivot before offset(a + 1)
    and pushes it again with those entries zeroed.  The rows kept span the
    words of proj_[a,N) C that vanish before offset(a + 1) and keep the
    Howell property, and every word of proj_[a+1,N) C is one of them plus
    a combination of the zeroed rows, so the push restores the Howell
    property for the new span.  So one sweep fills the table and no start
    takes a Howell form of its own; a start whose symbol holds no pivot
    shares the entry before it, and a row that a step leaves alone keeps
    its pivot column and its tuple object.

    Callers pass starts within the horizon; the window functions check.
    """

    def __init__(self, space: SequenceSpace, rows: tuple[Vector, ...], whole: tuple) -> None:
        self.offsets, self.entries = space.offsets(), [whole]
        self.state = _howell_state(space.flat_moduli)
        self.state.push(rows)

    def _step(self, a: int) -> bool:
        return self.state.trim(self.offsets[a])


def _subcode_chain(code: BlockCode) -> tuple[BlockCode, ...]:
    """The controllable subcodes cs_0 ⊆ cs_1 ⊆ ... ⊆ cs_t = C of a code C,
    cs_L the sum of the windows C ∩ [k, k+L+1), clipped to the horizon,
    over all k, climbed once on one Howell kernel state
    (``linalg._howell_state``) up to the top t.

    The windows of gap L lie in those of gap L + 1, so cs_L is the span of
    every window row of the gaps up to L.  Going up to gap L pushes the
    rows of its windows (``_internal``, a slice of a prefix entry) that
    no earlier gap pushed, so each distinct row goes in once, and the
    state is finished only at a gap that pushed a row, to give its Howell
    rows.  A gap whose Howell rows are those of the gap before shares its
    code object, so the distinct objects are the distinct subgroups.  The
    climb stops at the first gap whose Howell rows are C's, and at
    L = N - 1 (the window [0, N) is C): there the chain ends with the code
    itself, which every gap from t on reads (``controllable_subcode``).
    """
    N, space = code.space.horizon, code.space
    state, pushed, chain, rows = _howell_state(code.basis.moduli), set(), [], None
    for L in range(N - 1):
        new = []
        for k in range(N):
            for row in _internal(code, k, min(k + L + 1, N)):
                if row not in pushed:
                    pushed.add(row)
                    new.append(row)
        if new or rows is None:
            state.push(new)
            rows = tuple(state.finish())
        if rows == code.basis.rows:
            break
        if chain and rows == chain[-1].basis.rows:
            chain.append(chain[-1])
        else:
            chain.append(BlockCode.from_howell(space, rows))
    return (*chain, code)


def code_from_generators(
    space: SequenceSpace, generators: Iterable[Sequence[int]]
) -> BlockCode:
    """The subgroup spanned by flat generator words, canonicalized."""
    return BlockCode(space, residue_matrix(generators, space.flat_moduli))


def zero_code(space: SequenceSpace) -> BlockCode:
    return code_from_generators(space, [])


def _unit_rows(moduli: Sequence[int], columns: Iterable[int]) -> list[Vector]:
    """The unit words at ``columns`` of a space with flat ``moduli``, one
    per column of modulus above 1 (a unit of Z/1 is zero).  They are a
    Howell form of their span: one normalized pivot per row, in the order
    of ``columns``, with nothing above it."""
    width = len(moduli)
    return [(0,) * j + (1,) + (0,) * (width - 1 - j) for j in columns if moduli[j] > 1]


def ambient_code(space: SequenceSpace) -> BlockCode:
    """The whole space: the Howell form of its unit words (``_unit_rows``)."""
    moduli = space.flat_moduli
    return BlockCode.from_howell(space, _unit_rows(moduli, range(len(moduli))))


def intersect(a: BlockCode, b: BlockCode) -> BlockCode:
    """Exact intersection (``linalg.intersect_rows``)."""
    if a.space != b.space:
        raise ValueError("codes live in different spaces")
    return BlockCode.from_howell(a.space, intersect_rows(a.basis, b.basis).rows)


def join(a: BlockCode, b: BlockCode) -> BlockCode:
    """The subgroup generated by both codes."""
    if a.space != b.space:
        raise ValueError("codes live in different spaces")
    return BlockCode.from_howell(a.space, stack(a.basis, b.basis).rows)


# The window readers.  Each reads the rows or order of one window off a
# record of one of the code's two tables, C ∩ [0, b) (``_prefix``) and
# proj_[a,N) C (``_suffix``), with no code built and no window checked:
# their callers pass windows of the code's horizon.  The five public
# window functions below check the window and wrap these reads; they are
# the only window API.  The pivot columns of a Howell form, weak (a prefix
# entry or a suffix record) or not, strictly increase, so the rows with
# pivot at or after a column are a suffix of its rows and, by the Howell
# property, span the words vanishing before that column.  Both tables
# hold their rows and pivot columns in the space's own coordinates.


def _order(record: Entry, cut: int) -> int:
    """The order of the span of a pivot record's rows with pivot at or
    after column ``cut``, off its pivot columns and products alone."""
    _, columns, products = record
    return products[-1] // products[bisect_left(columns, cut)]


def _internal(code: BlockCode, a: int, b: int) -> tuple[Vector, ...]:
    """Rows of C ∩ [a, b): the words of the prefix C ∩ [0, b) that vanish
    before a, spanned by the rows of its entry, a weak Howell form, with
    pivot at or after ``offset(a)``; ``_order`` reads their span's order."""
    rows, columns, _ = code._prefix(b)
    return rows[bisect_left(columns, code.space.offsets()[a]) :]


def _rows_before(record: Entry, cut: int) -> tuple[tuple[Vector, ...], int]:
    """The rows of a pivot record with pivot before column ``cut``, uncut
    (a slice of its rows), and their span's order: of proj_[a,N) C at
    offset(b) (``_projection``), or of its finished record at offset(b) -
    offset(a) (``_canonical_projection``), proj_[a,b) C before the cut."""
    rows, columns, products = record
    i = bisect_left(columns, cut)
    return rows[:i], products[i]


def _projection(code: BlockCode, a: int, b: int) -> tuple[tuple[Vector, ...], int]:
    """Rows and order of proj_[a,b) C, in the coordinates of [a, b): the
    rows of the suffix record of proj_[a,N) C (C's own for a = 0) with
    pivot before offset(b) (``_rows_before``), cut to [a, b); the other
    rows vanish on it.  The cut rows are a weak Howell form again, a
    Howell form for a = 0, as a word of the window vanishing before a
    column lifts to a word of the suffix projection that does; each keeps
    its pivot and pivot order."""
    offsets = code.space.offsets()
    lo, hi = offsets[a], offsets[b]
    rows, order = _rows_before(code._suffix(a), hi)
    return tuple(row[lo:hi] for row in rows), order


def _annihilator_order(code: BlockCode, a: int, b: int) -> int:
    """|C-perp ∩ [a, b)| = |G_[a,b)| / |proj_[a,b) C| with no kernel built
    (a character on [a, b) kills C iff it kills the projection, and
    |X-perp| = |G| / |X|), read off the pivot orders of the suffix record
    of proj_[a,N) C (``BlockCode._suffix``); 1 if a = b."""
    if a == b:
        return 1
    offsets, products = code.space.offsets(), code.space._moduli_products
    _, columns, kept = code._suffix(a)
    i = bisect_left(columns, offsets[b])
    return products[offsets[b]] // products[offsets[a]] // kept[i]


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


def _canonical_projection(code: BlockCode, a: int, b: int) -> tuple[Vector, ...]:
    """Howell rows of proj_[a,b) C, in the coordinates of [a, b): the rows
    of the finished suffix record (``BlockCode._finished_suffix``) with
    pivot before the cut, cut to [a, b).  They are a Howell form again,
    as a word of the window vanishing before a column lifts to a word of
    the suffix projection that does, and each entry above a pivot is
    already reduced; so a start costs one Howell form, shared by all its
    ends."""
    offsets = code.space.offsets()
    cut = offsets[b] - offsets[a]
    rows, _ = _rows_before(code._finished_suffix(a), cut)
    return tuple(row[:cut] for row in rows)


def window_projection(code: BlockCode, a: int, b: int) -> BlockCode:
    """Image of the code under deleting all coordinates outside [a, b):
    the rows of ``_canonical_projection``, so each start costs one Howell
    form, shared by all its ends."""
    sub = code.space.window(a, b)
    return BlockCode.from_howell(sub, _canonical_projection(code, a, b))


def window_annihilator(code: BlockCode, a: int, b: int) -> BlockCode:
    """C-perp ∩ [a, b): the characters of the code's space that vanish
    outside [a, b) and annihilate C, equivalently the local dual of
    ``window_projection(code, a, b)`` padded with zeros.  They are the
    words of the local dual T = C-perp supported in [a, b), so the code
    is ``window_internal(T, a, b)``: one kernel per code, and every
    window a read of T's prefix table."""
    code.space.check_window(a, b)
    rows = _internal(code._local_dual, a, b)
    return BlockCode(code.space, _trusted(code.basis.moduli, rows))


def window_internal(code: BlockCode, a: int, b: int) -> BlockCode:
    """Subgroup of codewords supported inside [a, b), in the same space:
    one Howell form of the rows of ``_internal``."""
    code.space.check_window(a, b)
    return BlockCode(code.space, _trusted(code.basis.moduli, _internal(code, a, b)))


def window_order(code: BlockCode, a: int, b: int) -> int:
    """|C ∩ [a, b)|, read off the record of C ∩ [0, b) (``_order``): the
    code's own for b = N, with no prefix table, else the table's entry
    b, as ``_PrefixTable.order`` reads it.  No code is built."""
    code.space.check_window(a, b)
    return _order(code._prefix(b), code.space.offsets()[a])


def annihilator_order(code: BlockCode, a: int, b: int) -> int:
    """|C-perp ∩ [a, b)|, looked up in the suffix records with no kernel
    built (``_annihilator_order``)."""
    code.space.check_window(a, b)
    return _annihilator_order(code, a, b)


def invariant_factors_of_code(code: BlockCode) -> tuple[int, ...]:
    """Isomorphism type of the code as invariant factors d_1 | d_2 | ...,
    kept on the code (``BlockCode._invariant_factors``): ``smith_invariants``
    of its basis, counted on its Howell rows and order."""
    return code._invariant_factors
