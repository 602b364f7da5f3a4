"""Sequence spaces and block group codes.

A sequence space is a finite product of symbol groups, one per time index;
a block code is a subgroup of that product held in canonical Howell form,
so membership, equality and the subgroup lattice are all decidable.

Index conventions are 0-based with half-open windows [a, b) throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .groups import FiniteAbelianGroup
from .linalg import (
    ResidueMatrix,
    Vector,
    _reduce_vector,
    _trusted,
    annihilator_rows,
    contains_vector,
    coset_reduce,
    howell_form,
    intersect_rows,
    residue_matrix,
    smith_invariants,
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
    """A product of symbol groups over time indices 0..N-1."""

    symbols: tuple[FiniteAbelianGroup, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("a sequence space needs at least one index")

    @property
    def horizon(self) -> int:
        return len(self.symbols)

    @_cached
    def flat_moduli(self) -> tuple[int, ...]:
        return tuple(m for g in self.symbols for m in g.moduli)

    @property
    def cardinality(self) -> int:
        return math.prod(self.flat_moduli)

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
        (0, 0) for the zero word."""
        touched = [i for i, piece in enumerate(self.split(word)) if any(piece)]
        return (touched[0], touched[-1] + 1) if touched else (0, 0)

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
    def _prefix_codes(self) -> dict[int, "BlockCode"]:
        return {}

    @_cached
    def _suffix_projections(self) -> dict[int, "BlockCode"]:
        return {}

    @_cached
    def _prefix_annihilators(self) -> dict[int, "BlockCode"]:
        return {}

    def prefix_code(self, b: int) -> "BlockCode":
        """C ∩ [0, b), built on first use for each b and kept on the code:
        the rows of the reversed Howell form that vanish from offset(b) on."""
        self.space.check_window(0, b)
        if b == self.space.horizon:
            return self
        table = self._prefix_codes
        if b not in table:
            head = self.basis.width - self.space.offsets()[b]
            rows = [row[::-1] for row in self._reversed_howell if not any(row[:head])]
            table[b] = BlockCode(self.space, _trusted(self.basis.moduli, tuple(rows)))
        return table[b]

    def suffix_projection(self, a: int) -> "BlockCode":
        """proj_[a,N) C in the space of [a, N), built on first use for each
        a and kept on the code: one Howell form of the cut rows per start."""
        self.space.check_window(a, self.space.horizon)
        if a == 0:
            return self
        table = self._suffix_projections
        if a not in table:
            sub = self.space.window(a, self.space.horizon)
            start = self.space.offsets()[a]
            rows = tuple(row[start:] for row in self.basis.rows)
            table[a] = BlockCode(sub, _trusted(sub.flat_moduli, rows))
        return table[a]

    def prefix_annihilator(self, b: int) -> "BlockCode":
        """C-perp ∩ [0, b), built on first use for each b and kept on the
        code: the local dual of the prefix projection (a truncation, so no
        projection Howell form), padded with zeros after offset(b).  A
        character supported in [0, b) annihilates C exactly when its window
        part annihilates proj_[0,b) C."""
        self.space.check_window(0, b)
        table = self._prefix_annihilators
        if b not in table:
            rows: tuple[Vector, ...] = ()
            if b > 0:
                local = annihilator_rows(window_projection(self, 0, b).basis)
                after = (0,) * (self.basis.width - self.space.offsets()[b])
                rows = tuple(row + after for row in local.rows)
            table[b] = BlockCode.from_howell(self.space, rows)
        return table[b]

    @property
    def cardinality(self) -> int:
        return math.prod(order for _, order in self.pivots())

    def contains(self, word: Sequence[int]) -> bool:
        return contains_vector(self.basis, word)

    def coset_representative(self, word: Sequence[int]) -> tuple[int, ...]:
        return coset_reduce(self.basis, word)

    def pivots(self) -> tuple[tuple[int, int], ...]:
        """(pivot column, pivot order) of each basis row.

        Coefficients below the pivot orders reach every codeword exactly
        once; the rows with pivot at or after a column span the codewords
        vanishing before it.  Computed once per code.
        """
        return self._pivots

    @_cached
    def _pivots(self) -> tuple[tuple[int, int], ...]:
        moduli = self.basis.moduli
        out = []
        for row in self.basis.rows:
            j = next(i for i, e in enumerate(row) if e)
            # A normalized Howell pivot divides its modulus.
            out.append((j, moduli[j] // row[j]))
        return tuple(out)

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
        if self.basis.rows == other.basis.rows:
            return True
        return not any(any(_reduce_vector(other.basis, row)) for row in self.basis.rows)

    def __str__(self) -> str:
        return f"code of order {self.cardinality} in {self.space}"


def code_from_generators(
    space: SequenceSpace, generators: Iterable[Sequence[int]]
) -> BlockCode:
    """The subgroup spanned by flat generator words, canonicalized."""
    return BlockCode(space, residue_matrix(generators, space.flat_moduli))


def zero_code(space: SequenceSpace) -> BlockCode:
    return code_from_generators(space, [])


def ambient_code(space: SequenceSpace) -> BlockCode:
    n = len(space.flat_moduli)
    units = [[1 if k == j else 0 for k in range(n)] for j in range(n)]
    return code_from_generators(space, units)


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


def window_projection(code: BlockCode, a: int, b: int) -> BlockCode:
    """Image of the code under deleting all coordinates outside [a, b).

    The Howell rows of the suffix projection proj_[a,N) C (C itself for
    a = 0), cut to [a, b), with zero rows dropped: a Howell form again, as
    a word of the window vanishing before a column lifts to a word of the
    suffix projection that does.  So each start costs one Howell form,
    shared by all its ends.
    """
    code.space.check_window(a, b)
    sub = code.space.window(a, b)
    cut = code.space.offsets()[b] - code.space.offsets()[a]
    rows = (row[:cut] for row in code.suffix_projection(a).basis.rows)
    return BlockCode.from_howell(sub, (row for row in rows if any(row)))


def window_annihilator(code: BlockCode, a: int, b: int) -> BlockCode:
    """C-perp ∩ [a, b): the characters of the code's space that vanish
    outside [a, b) and annihilate C, equivalently the local dual of
    ``window_projection(code, a, b)`` padded with zeros.

    These are the words of ``prefix_annihilator(b)`` = C-perp ∩ [0, b) that
    vanish before a.  That is a Howell form, so by the Howell property its
    rows with pivot at or after ``offset(a)`` are their canonical basis, as
    ``window_internal`` reads the prefix codes; each end costs one kernel.
    """
    code.space.check_window(a, b)
    start = code.space.offsets()[a]
    rows = code.prefix_annihilator(b).basis.rows
    return BlockCode.from_howell(code.space, (row for row in rows if not any(row[:start])))


def window_internal(code: BlockCode, a: int, b: int) -> BlockCode:
    """Subgroup of codewords supported inside [a, b), in the same space.

    These are the words of the prefix code C ∩ [0, b) that vanish before a.
    The prefix code is a Howell form, so by the Howell property its rows
    with pivot at or after ``offset(a)`` are their canonical basis; for
    b = N the prefix code is C itself and no Howell form is computed.
    """
    code.space.check_window(a, b)
    prefix = code.prefix_code(b)
    start = code.space.offsets()[a]
    rows = tuple(row for row in prefix.basis.rows if not any(row[:start]))
    return BlockCode.from_howell(code.space, rows)


def window_order(code: BlockCode, a: int, b: int) -> int:
    """|C ∩ [a, b)|, read off the window table with no code built: by the
    Howell property, the product of the pivot orders of the prefix code's
    rows with pivot at or after ``offset(a)`` (the rows ``window_internal``
    keeps)."""
    code.space.check_window(a, b)
    start = code.space.offsets()[a]
    return math.prod(order for j, order in code.prefix_code(b).pivots() if j >= start)


def annihilator_order(code: BlockCode, a: int, b: int) -> int:
    """|C-perp ∩ [a, b)| = |G_[a,b)| / |proj_[a,b) C| (a character on [a, b)
    kills C iff it kills the projection; |X-perp| = |G| / |X|), no kernel
    built: |proj| is the product of the pivot orders of proj_[a,N) C's rows
    with pivot before the cut (those ``window_projection`` keeps); 1 if a = b."""
    code.space.check_window(a, b)
    if a == b:
        return 1
    offs = code.space.offsets()
    kept = (o for j, o in code.suffix_projection(a).pivots() if j < offs[b] - offs[a])
    return math.prod(code.space.flat_moduli[offs[a] : offs[b]]) // math.prod(kept)


def invariant_factors_of_code(code: BlockCode) -> tuple[int, ...]:
    """Isomorphism type of the code as invariant factors d_1 | d_2 | ..."""
    return smith_invariants(code.basis)
