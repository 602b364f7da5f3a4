"""Exact linear algebra over products of residue rings Z/m_1 x ... x Z/m_n.

Everything here works with plain Python integers, so all results are exact.
The central object is the Howell form: the canonical echelon basis of a row
span over a residue ring.  Two generating sets span the same subgroup of
``Z/m_1 x ... x Z/m_n`` exactly when their Howell forms are identical, and
the Howell property (any span element with a zero prefix lies in the span of
the later rows) is what makes membership tests, coset reduction and kernel
computations by block elimination correct.

Mixed per-column moduli are handled in residue coordinates: column ``j``
is reduced modulo its own ``m_j``, and every row operation is an integer
combination, so no column is mapped into a common ring.

The Howell kernel is a state that takes rows in batches (``push``) and
gives the Howell form of all rows so far (``finish``) or, unfinished,
their weak Howell form (``record``; Storjohann & Mulders, ESA 1998):
each pivot scaled to gcd(p, m_j), nothing reduced above it.  That form
keeps the Howell property and pivot orders, so it answers every order
and membership read, and a caller that grows a span batch by batch reads
it after each batch; ``trim`` projects the span onto the columns from
a cut on, so a caller can also shrink a span start by start, and
``replace`` swaps chosen pivot rows for new rows, for a caller that
proves the Howell property kept (the peel's complement).  Only rows
compared or printed are finished, by ``howell_form``, which pushes all
rows at once and finishes, under the one Howell cache ``_howell_cached``;
a reader of pivots and orders alone owns one ``_howell_record``: the
strong-index windows, the order split's scaled windows, the directness
span.
``_HowellState`` holds ``record``, ``trim`` and ``replace`` once; a
kernel adds its elimination loop, its ``finish`` and a row codec, and
``_howell_state`` picks it from the moduli.  When every modulus is a
power of 2 up to 8 (1 included), ``_HowellPacked`` holds each row as one
int, one byte per column, and eliminates with shifts, one multiply and a
mask per row operation: a byte holds the 2K + 1 = 7 bits that x + c·y
needs for x, y < 2^K = 8 and c <= 2^K, so no field carries into the
next.  Every other moduli tuple goes through ``_HowellSingle``, the
reference the packed kernel is tested against; the Howell form is
unique, so both finish with the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import gcd, isqrt, lcm
from operator import floordiv, mod, mul
from typing import Any, Iterable, Optional, Sequence

Vector = tuple[int, ...]

__all__ = [
    "ResidueMatrix",
    "residue_matrix",
    "howell_form",
    "span_cardinality",
    "contains_vector",
    "coset_reduce",
    "vector_order",
    "stack",
    "annihilator_rows",
    "head_kernel",
    "head_solve",
    "homomorphism_graph",
    "homomorphism_kernel",
    "solve_homomorphism",
    "intersect_rows",
    "smith_invariants",
    "quotient_invariants",
    "prime_factors",
    "primary_part",
]


@dataclass(frozen=True)
class ResidueMatrix:
    """Rows over ``Z/m_1 x ... x Z/m_n`` with per-column moduli ``m_j >= 1``.

    Entries satisfy ``0 <= rows[i][j] < moduli[j]``.  Instances are immutable;
    all operations return new matrices.  A direct call stores both fields
    as tuples of ints, so lists may be passed, and checks every entry; the
    matrices this module builds itself hold reduced entries by construction
    and skip both steps (see ``_trusted``).
    """

    moduli: Vector
    rows: tuple[Vector, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "moduli", tuple(map(int, self.moduli)))
        object.__setattr__(self, "rows", tuple(tuple(map(int, row)) for row in self.rows))
        if any(m < 1 for m in self.moduli):
            raise ValueError(f"moduli must be >= 1, got {self.moduli}")
        width = len(self.moduli)
        for row in self.rows:
            if len(row) != width:
                raise ValueError(f"row width {len(row)} != {width} columns")
            if any(not 0 <= e < m for e, m in zip(row, self.moduli)):
                raise ValueError(f"entry out of range in row {row}")

    @property
    def width(self) -> int:
        return len(self.moduli)


def _trusted(moduli: Vector, rows: tuple[Vector, ...]) -> ResidueMatrix:
    """A ResidueMatrix whose entries are reduced by construction.

    Skips ``__post_init__``: every caller has reduced each entry into
    ``[0, moduli[j])`` already, so the checks would only repeat that work.
    """
    matrix = object.__new__(ResidueMatrix)
    object.__setattr__(matrix, "moduli", moduli)
    object.__setattr__(matrix, "rows", rows)
    return matrix


def _reduced(vector: Sequence[int], moduli: Vector) -> Vector:
    """``vector`` reduced modulo ``moduli``; the widths must agree."""
    if len(vector) != len(moduli):
        raise ValueError(f"width {len(vector)} != {len(moduli)} columns")
    return tuple(map(mod, map(int, vector), moduli))


def residue_matrix(rows: Iterable[Sequence[int]], moduli: Sequence[int]) -> ResidueMatrix:
    """Build a ResidueMatrix, reducing entries modulo the column moduli."""
    mods = tuple(int(m) for m in moduli)
    if any(m < 1 for m in mods):
        raise ValueError(f"moduli must be >= 1, got {mods}")
    return _trusted(mods, tuple(_reduced(row, mods) for row in rows))


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def prime_factors(n: int) -> list[int]:
    """Ascending list of distinct primes dividing n, each n factored once."""
    return list(_primes(n))


# Trial division takes every prime below _TRIAL; strong probable primes to
# the 13 prime bases up to 41 are prime below _PROVEN (Sorenson & Webster,
# Math. Comp. 2017); Pollard–Brent rho gets _RHO_STEPS steps per split.
_TRIAL = 1 << 10


def _sieve(n: int) -> tuple[int, ...]:
    """The primes below n, by a sieve of Eratosthenes on a bytearray."""
    flags = bytearray([1]) * n
    flags[:2] = bytes(min(n, 2))
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p, flag in enumerate(flags) if flag)


_SMALL_PRIMES = _sieve(_TRIAL)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PROVEN = 3317044064679887385961981
_RHO_STEPS = 1 << 20


@lru_cache(maxsize=1 << 8)
def _primes(n: int) -> tuple[int, ...]:
    """The distinct primes of n, ascending.  Callers factor moduli, so 256
    entries hold every one a run meets.  Raises ValueError when n has a
    factor that rho cannot split within its budget or a prime factor of
    _PROVEN or more, which no base set here proves prime."""
    if n < 2:
        return ()
    primes: set[int] = set()
    for p in _SMALL_PRIMES:
        if n % p == 0:
            primes.add(p)
            while n % p == 0:
                n //= p
    if n > 1:
        _split(n, primes)
    return tuple(sorted(primes))


def _split(n: int, primes: set[int]) -> None:
    """Add the primes of n > 1, which has none below _TRIAL, to ``primes``."""
    if n < _TRIAL * _TRIAL or _strong_probable_prime(n):
        if n >= _PROVEN:
            raise ValueError(f"cannot prove {n} prime: bases up to 41 decide below {_PROVEN}")
        primes.add(n)
        return
    for k in range(2, n.bit_length() // 10 + 1):
        root = _integer_root(n, k)
        if root**k == n:
            _split(root, primes)
            return
    d = _rho_divisor(n)
    _split(d, primes)
    _split(n // d, primes)


def _strong_probable_prime(n: int) -> bool:
    """Miller–Rabin on odd n > 41 to every base of _BASES."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(n: int, k: int) -> int:
    """The floor of the k-th root of n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _rho_divisor(n: int) -> int:
    """A proper divisor of n, composite and no perfect power, by Pollard rho
    on x -> x² + c with Brent's cycle search, for c = 1, 2, ... while the
    _RHO_STEPS steps last; raises ValueError when they run out."""
    c, steps = 0, _RHO_STEPS
    while steps:
        c, x, y, g, power, length = c + 1, 2, 2, 1, 1, 0
        while g == 1 and steps:
            if length == power:
                x, power, length = y, 2 * power, 0
            y, length, steps = (y * y + c) % n, length + 1, steps - 1
            g = gcd(y - x, n)
        if 1 < g < n:
            return g
    raise ValueError(f"cannot split {n} within {_RHO_STEPS} rho steps")


def primary_part(m: int, p: int) -> tuple[int, int]:
    """The p-part q of m and its CRT multiplier u: u = 1 mod q and
    u = 0 mod m/q, so e -> e mod q and e -> e·u mod m project Z/m onto Z/q
    and embed it back.  u = 0 when q = 1."""
    q = 1
    while m % (q * p) == 0:
        q *= p
    rest = m // q
    return q, (rest * pow(rest, -1, q) % m if q > 1 else 0)


def _first_nonzero(row: Sequence[int], start: int = 0) -> int:
    for j in range(start, len(row)):
        if row[j]:
            return j
    return -1


class _HowellState:
    """A Howell kernel state: rows are pushed in any number of batches,
    and ``finish`` gives the Howell form of every row pushed so far,
    ``record`` its weak Howell form.  ``pivots`` maps each pivot column j
    to its pivot row, in the subclass's representation, and ``kept`` maps
    j to that row, its record row and its order.  A pivot row is
    replaced, never changed in place, so ``kept`` holds for every row
    that the pushes since the last record left alone.

    A subclass supplies its elimination loop (``push``), ``finish`` and
    a row codec: ``_scaled(j, row)``, the record row and order of the
    pivot row at j, and ``_cut(row, cut)``, the row zeroed before
    ``cut``, as ``push`` takes it.
    """

    __slots__ = ("pivots", "kept")
    pivots: dict[int, Any]  # j -> pivot row
    kept: dict[int, tuple[Any, Vector, int]]  # j -> (row, record row, order)

    def record(self) -> Entry:
        """The weak Howell form of the rows pushed so far as an ``Entry``:
        the scaled pivot rows (``_scaled``), nothing reduced above a pivot;
        the state is left as it was.  A row that the pushes since the last
        record left alone is the same object in ``pivots``, and its record
        row is the same tuple object as in that record: only replaced rows
        are scaled again."""
        pivots, kept = self.pivots, self.kept
        columns = sorted(pivots)
        rows, orders = [], []
        for j in columns:
            row, seen = pivots[j], kept.get(j)
            if seen is None or seen[0] is not row:
                seen = kept[j] = (row, *self._scaled(j, row))
            rows.append(seen[1])
            orders.append(seen[2])
        return tuple(rows), tuple(columns), tuple(accumulate(orders, mul, initial=1))

    def trim(self, cut: int) -> bool:
        """Project the span onto the columns from ``cut`` on: drop each
        pivot row with pivot before ``cut`` and push it again with those
        entries zeroed; whether any row was dropped.  The rows kept span
        the words of the span that vanish before ``cut`` and keep the
        Howell property among themselves, so the push restores it for the
        projection; a kept row that the push leaves alone is the same
        object as before, and keeps its record row."""
        dropped = [j for j in self.pivots if j < cut]
        self.replace(dropped, [self._cut(self.pivots[j], cut) for j in dropped])
        return bool(dropped)

    def replace(self, columns: Iterable[int], rows: Iterable[Vector]) -> None:
        """Drop the pivot rows at ``columns`` and push ``rows``.  The caller
        proves the Howell property of the result, as
        ``structure._peel_complement`` does: the state keeps it when the
        rows kept after the dropped ones keep it among themselves, the
        pushed rows vanish before the first column dropped, and each kept
        row before it has the multiple that clears its pivot in the new
        span of the rows after it."""
        for j in columns:
            del self.pivots[j]
            self.kept.pop(j, None)
        self.push(rows)


class _HowellSingle(_HowellState):
    """The Howell kernel state over any ``moduli``, in residue
    coordinates, each pivot row a list.

    Every row operation is reduced modulo each column's own modulus.  Rows
    that share a pivot column j vanish before j, so each operation touches
    only the columns from j on.  Each row that becomes a pivot pushes its
    annihilator row, so the pivot rows keep the Howell property between
    pushes, and a later push goes on from them.
    """

    __slots__ = ("moduli", "top")

    def __init__(self, moduli: Vector) -> None:
        self.pivots, self.kept, self.moduli = {}, {}, moduli
        self.top = lcm(*moduli) if moduli else 1

    def push(self, rows: Iterable[Vector]) -> None:
        """Eliminate reduced ``rows`` into the pivot rows."""
        moduli, L, pivots = self.moduli, self.top, self.pivots
        stack = [list(row) for row in rows if any(row)]

        def push_annihilator(row: list[int], j: int) -> None:
            # c = ord(row[j]) clears the pivot; c * row vanishes when c = L.
            c = moduli[j] // gcd(moduli[j], row[j])
            if c != L:
                w = [0] * (j + 1) + [(c * e) % m for e, m in zip(row[j + 1 :], moduli[j + 1 :])]
                if any(w):
                    stack.append(w)

        while stack:
            v = stack.pop()
            j = _first_nonzero(v)
            while j >= 0:
                r = pivots.get(j)
                if r is None:
                    pivots[j] = v
                    push_annihilator(v, j)
                    break
                a, b = r[j], v[j]
                mods = moduli[j:]
                if b % a == 0:
                    q = b // a
                    v[j:] = [(x - q * y) % m for x, y, m in zip(v[j:], r[j:], mods)]
                else:
                    g, s, t = _egcd(a, b)
                    # [[s, t], [-b/g, a/g]] has determinant 1: span preserved.
                    ag, bg = a // g, b // g
                    new_r = r[:j] + [(s * x + t * y) % m for x, y, m in zip(r[j:], v[j:], mods)]
                    v[j:] = [(ag * y - bg * x) % m for x, y, m in zip(r[j:], v[j:], mods)]
                    pivots[j] = new_r
                    push_annihilator(new_r, j)
                j = _first_nonzero(v, j)

    def _scaled(self, j: int, row: list[int]) -> tuple[Vector, int]:
        """``row``, the pivot row at column j, with its pivot p scaled to
        the divisor d = gcd(p, m_j) by u = (p/d)^-1 modulo c = m_j/d, and
        its order c.  u need not be a unit of the other columns: it is
        prime to c, and c·row (its pivot cleared) lies in the span of the
        later rows, so u·row and c·row span row, and the rows from each
        pivot on keep their span."""
        moduli = self.moduli
        d = gcd(row[j], moduli[j])
        c = moduli[j] // d
        u = pow(row[j] // d, -1, c)
        if u != 1:
            row = row[:j] + [(u * e) % m for e, m in zip(row[j:], moduli[j:])]
        return tuple(row), c

    @staticmethod
    def _cut(row: list[int], cut: int) -> list[int]:
        return [0] * cut + row[cut:]

    def finish(self) -> list[Vector]:
        """The Howell form of the rows pushed so far: the scaled rows
        (``_scaled``), each entry above a pivot d reduced into [0, d)."""
        moduli, pivots = self.moduli, self.pivots
        order = sorted(pivots)
        basis = [self._scaled(j, pivots[j])[0] for j in order]
        for idx, j in enumerate(order):
            d, tail = basis[idx][j], basis[idx][j:]
            for above in range(idx):
                row = basis[above]
                q = row[j] // d
                if q:
                    tail_above = [(x - q * y) % m for x, y, m in zip(row[j:], tail, moduli[j:])]
                    basis[above] = row[:j] + tuple(tail_above)
        return basis


# The moduli of the packed kernel: powers of 2 up to 2^K = 8, so a field
# of 2K + 1 = 7 bits fits in one byte.
_PACKED_MODULI = frozenset((1, 2, 4, 8))


# 256 layouts hold every moduli tuple the convolutional and long-horizon
# pools reach (48 and 20 on seed 7) and most that block codes reuse.
@lru_cache(maxsize=1 << 8)
def _packed_layout(moduli: Vector) -> tuple[int, int, int]:
    """(width, mask, top modulus) of the packed kernel over ``moduli``, all
    in ``_PACKED_MODULI``.  The mask holds m_j - 1 in column j's byte,
    column 0 most significant."""
    mask = int.from_bytes(bytes(m - 1 for m in moduli), "big")
    return len(moduli), mask, max(moduli, default=1)


class _HowellPacked(_HowellState):
    """The Howell kernel state for moduli that are all powers of 2 up to
    8, each pivot row packed into one int (``_packed_layout``).

    Column j is the byte 8(n - 1 - j) bits up, so a row's pivot column is
    read off its ``bit_length``, and a row vanishing before column j holds
    its entry there as ``row >> shift``.  Every field stays reduced between
    steps, and x + c·y with x, y < 2^K and c <= 2^K is below 2^(2K) < 2^8,
    so ``(x + c*y) & mask`` is a row operation with each column reduced
    modulo its own m_j | 2^K, and no field carries into the next; over
    GF(2) it is an xor.  Every odd x has x·x = 1 modulo 8, hence modulo
    every m_j: each odd unit is its own inverse.  ``finish`` gives the
    unique Howell form, so it equals ``_HowellSingle``'s output row for
    row.
    """

    __slots__ = ("moduli", "width", "mask", "top")

    def __init__(self, moduli: Vector) -> None:
        self.pivots, self.kept, self.moduli = {}, {}, moduli
        self.width, self.mask, self.top = _packed_layout(moduli)

    def push(self, rows: Iterable[Vector]) -> None:
        """Eliminate reduced ``rows`` into the pivot rows."""
        moduli, width, mask, top = self.moduli, self.width, self.mask, self.top
        pivots = self.pivots
        stack = [v for v in (int.from_bytes(bytes(row), "big") for row in rows) if v]
        while stack:
            v = stack.pop()
            while v:
                k = (v.bit_length() + 7) >> 3
                shift, j = 8 * k - 8, width - k
                r = pivots.get(j)
                b = v >> shift
                low_b = b & -b
                if r is not None:
                    a = r >> shift
                    low_a = a & -a
                    if low_a <= low_b:
                        # Clear b by q·r, q = (b / 2^v(a))·(a / 2^v(a))^-1.
                        q = (b // low_a) * (a // low_a) & (top - 1)
                        v = (v + (top - q) * r) & mask
                        continue
                # v becomes the pivot: a new column, or an entry of lower
                # 2-adic valuation, which divides the other's.  Its
                # annihilator row (m_j / 2^v(b))·v clears the pivot; over
                # GF(2), c = 2 = top and none is pushed.
                pivots[j] = v
                c = moduli[j] // low_b
                if c != top:
                    w = (c * v) & mask
                    if w:
                        stack.append(w)
                if r is None:
                    break
                # The old pivot row r goes on, its entry a cleared by v.
                q = (a // low_b) * (b // low_b) & (top - 1)
                v = (r + (top - q) * v) & mask

    def _scaled(self, j: int, row: int) -> tuple[Vector, int]:
        """``row``, the pivot row at column j, with its pivot p (its byte
        there) scaled to its 2-adic part p & -p = gcd(p, m_j), as
        p < m_j | 2^K, by the odd p / (p & -p), its own inverse, unpacked;
        and its order m_j / (p & -p)."""
        shift = 8 * (self.width - j) - 8
        p = row >> shift
        low = p & -p
        scaled = ((p // low) * row) & self.mask if p != low else row
        return tuple(scaled.to_bytes(self.width, "big")), self.moduli[j] // low

    def _cut(self, row: int, cut: int) -> bytes:
        return (row & ((1 << 8 * (self.width - cut)) - 1)).to_bytes(self.width, "big")

    def finish(self) -> list[Vector]:
        """The Howell form of the rows pushed so far; the pivot rows are
        ints, so the state is left as it was.  Scale each pivot p = 2^v·u
        to 2^v by u (its own inverse), as ``_scaled`` does, and reduce the
        entries above each pivot into [0, pivot) in the same pass, as
        ``_HowellSingle.finish`` does."""
        width, mask, top, pivots = self.width, self.mask, self.top, self.pivots
        basis: list[int] = []
        for j in sorted(pivots):
            row, shift = pivots[j], 8 * (width - j) - 8
            p = row >> shift
            low = p & -p
            if p != low:
                row = ((p // low) * row) & mask
            for above, prior in enumerate(basis):
                q = ((prior >> shift) & 0xFF) // low
                if q:
                    basis[above] = (prior + (top - q) * row) & mask
            basis.append(row)
        return [tuple(row.to_bytes(width, "big")) for row in basis]


def _howell_state(moduli: Vector) -> _HowellState:
    """An empty Howell kernel state over ``moduli``: the packed kernel when
    every modulus is a power of 2 up to 8, the residue-coordinate kernel
    otherwise; both finish with the same Howell form.  The finish is taken
    only by ``_howell_kernel``; a prefix sweep reads each end's ``record``,
    a suffix sweep each start's, after a ``trim``, and the peel each
    step's, after a ``replace``."""
    if _PACKED_MODULI.issuperset(moduli):
        return _HowellPacked(moduli)
    return _HowellSingle(moduli)


def _howell_kernel(rows: tuple[Vector, ...], moduli: Vector) -> list[Vector]:
    """The Howell form of ``rows``: push them all into one state, finish."""
    state = _howell_state(moduli)
    state.push(rows)
    return state.finish()


@lru_cache(maxsize=1 << 12)
def _howell_cached(rows: tuple[Vector, ...], moduli: Vector) -> tuple[Vector, ...]:
    canon = tuple(_howell_kernel(rows, moduli))
    # Most calls re-canonicalize a Howell form; handing back the input tuple
    # keeps one copy of those rows in the cache instead of two.
    return rows if canon == rows else canon


def _howell_record(matrix: ResidueMatrix) -> Entry:
    """The weak Howell form of ``matrix`` off one owned state, not finished
    nor cached: its pivot columns and orders are the Howell form's, and
    a sweep that pushes its rows again spans the same words."""
    state = _howell_state(matrix.moduli)
    state.push(matrix.rows)
    return state.record()


def howell_form(matrix: ResidueMatrix) -> ResidueMatrix:
    """Canonical Howell basis of the row span.  Idempotent.

    The result has one row per pivot column, pivot columns strictly
    increasing, pivot entries normalized, entries above each pivot reduced,
    and the Howell property: every span element whose first k coordinates
    vanish lies in the span of the rows with pivot column >= k.
    """
    return _trusted(matrix.moduli, _howell_cached(matrix.rows, matrix.moduli))


def vector_order(vector: Sequence[int], moduli: Sequence[int]) -> int:
    """Additive order of a residue vector: lcm_j of m_j / gcd(m_j, v_j).

    ``vector`` and ``moduli`` have the same length; the empty vector has
    order 1.
    """
    return lcm(*map(floordiv, moduli, map(gcd, moduli, vector)))


# A Howell form, or a weak one (a state's ``record``: the Howell property
# and normalized pivots, nothing reduced above a pivot), with its pivot
# columns and the running products of its pivot orders from 1: the rows
# from i on span a subgroup of order products[-1] // products[i].
Entry = tuple[tuple[Vector, ...], tuple[int, ...], tuple[int, ...]]


def _entry(rows: tuple[Vector, ...], moduli: Sequence[int]) -> Entry:
    """``rows``, a Howell form over ``moduli``, with its pivot columns and
    running pivot-order products (a normalized pivot divides its modulus).
    The one place a finished form's pivots are found: its owner keeps the
    result.  A state's ``record`` gives the same for its weak form."""
    columns = tuple(map(_first_nonzero, rows))
    orders = (moduli[j] // row[j] for j, row in zip(columns, rows))
    return rows, columns, tuple(accumulate(orders, mul, initial=1))


def span_cardinality(matrix: ResidueMatrix) -> int:
    """Number of elements in the row span, read off the Howell pivots."""
    return _entry(howell_form(matrix).rows, matrix.moduli)[2][-1]


def _reduce_vector(
    rows: Sequence[Vector],
    columns: Sequence[int],
    moduli: Sequence[int],
    vector: Sequence[int],
) -> Vector:
    """Reduce ``vector`` by ``rows`` at their held pivot ``columns``, in
    order, stopping at the first column past ``moduli`` (a wrong record's
    pivot beyond a window).  Each step subtracts a whole row, so the
    result is ``vector`` minus a combination of the rows whatever
    ``columns`` holds, and zero proves membership.  For a Howell form and
    its own columns each pivot entry ends in ``[0, pivot)``: by the Howell
    property, the canonical coset representative."""
    v, width = list(vector), len(moduli)
    for row, j in zip(rows, columns):
        if j >= width:
            break
        q = v[j] // row[j] if row[j] else 0
        if q:
            v = [(x - q * y) % m for x, y, m in zip(v, row, moduli)]
    return tuple(v)


def coset_reduce(matrix: ResidueMatrix, vector: Sequence[int]) -> Vector:
    """Canonical representative of ``vector + span(matrix)``."""
    canon = howell_form(matrix)
    rows, columns, _ = _entry(canon.rows, canon.moduli)
    return _reduce_vector(rows, columns, canon.moduli, _reduced(vector, canon.moduli))


def contains_vector(matrix: ResidueMatrix, vector: Sequence[int]) -> bool:
    """Membership of ``vector`` in the row span."""
    return not any(coset_reduce(matrix, vector))


def stack(a: ResidueMatrix, b: ResidueMatrix) -> ResidueMatrix:
    if a.moduli != b.moduli:
        raise ValueError("column moduli mismatch")
    return howell_form(_trusted(a.moduli, a.rows + b.rows))


# ---------------------------------------------------------------------------
# The vanishing-block read.  By the Howell property, the rows of a Howell
# form whose first ``head`` entries vanish span exactly the span elements
# that vanish there (Storjohann & Mulders, ESA 1998).  Every kernel-shaped
# result is that read on a suitable block matrix:
#
# * kernel of f: the graph rows [f(e_j) | e_j] span {(f(x), x)}, and the
#   rows with vanishing image block span {(0, x) : f(x) = 0};
# * A ∩ B (Zassenhaus): the rows [a | a] and [b | 0] span {(x + y, x)}, and
#   x + y = 0 leaves x in both spans.
#
# Clearing the head of (target | 0) by the same Howell form decides whether
# some (target | t) lies in the span, reading off t.
# ---------------------------------------------------------------------------


def _head_rows(matrix: ResidueMatrix, head: int) -> tuple[ResidueMatrix, int]:
    """The Howell form of ``matrix`` and the number of its rows with pivot
    before column ``head``; pivot columns increase, so the other rows are
    a suffix, the rows whose head vanishes."""
    canon = howell_form(matrix)
    rows, i = canon.rows, 0
    while i < len(rows) and any(rows[i][:head]):
        i += 1
    return canon, i


def head_kernel(matrix: ResidueMatrix, head: int) -> ResidueMatrix:
    """Howell basis of {t : (0 | t) in span(matrix)}, the head ``head``
    wide: the tails of the Howell rows whose head vanishes, since pivots,
    their normalization and the reduction above them and the Howell
    property all carry over to the tail columns."""
    canon, i = _head_rows(matrix, head)
    return _trusted(canon.moduli[head:], tuple(row[head:] for row in canon.rows[i:]))


def head_solve(
    matrix: ResidueMatrix, head: int, target: Sequence[int]
) -> Optional[Vector]:
    """A tail t with (target | t) in span(matrix), or None: (target | 0)
    reduced by the Howell rows with pivot in the head, whose pivot
    columns alone are found."""
    canon, i = _head_rows(matrix, head)
    rows = canon.rows[:i]
    augmented = _reduced(target, canon.moduli[:head]) + (0,) * (canon.width - head)
    remainder = _reduce_vector(rows, tuple(map(_first_nonzero, rows)), canon.moduli, augmented)
    if any(remainder[:head]):
        return None
    return tuple((-e) % m for e, m in zip(remainder[head:], canon.moduli[head:]))


def homomorphism_graph(
    images: Sequence[Sequence[int]],
    unknown_moduli: Sequence[int],
    image_moduli: Sequence[int],
) -> ResidueMatrix:
    """The graph rows ``[f(e_j) | e_j]`` of f, image columns first; each
    ``images[j]`` must be reduced modulo ``image_moduli`` already, and there
    is one image per unknown."""
    unknowns = tuple(int(m) for m in unknown_moduli)
    if len(images) != len(unknowns):
        raise ValueError(f"{len(images)} images for {len(unknowns)} unknowns")
    imgmods, n = tuple(int(m) for m in image_moduli), len(unknowns)
    rows = tuple(
        tuple(images[j]) + (0,) * j + (1 % u,) + (0,) * (n - j - 1)
        for j, u in enumerate(unknowns)
    )
    return _trusted(imgmods + unknowns, rows)


def homomorphism_kernel(
    images: Sequence[Sequence[int]],
    unknown_moduli: Sequence[int],
    image_moduli: Sequence[int],
) -> ResidueMatrix:
    """Kernel of ``x -> sum_j x_j * images[j]`` as a Howell basis.

    ``images[j]`` is the image of the j-th unit over ``image_moduli``; the
    map must be well defined, i.e. ``unknown_moduli[j] * images[j] == 0``.
    """
    imgmods = tuple(int(m) for m in image_moduli)
    images = [_reduced(img, imgmods) for img in images]
    for m, img in zip(unknown_moduli, images):
        if any((int(m) * e) % w for e, w in zip(img, imgmods)):
            raise ValueError("map not well defined on Z/%d" % m)
    graph = homomorphism_graph(images, unknown_moduli, imgmods)
    return head_kernel(graph, len(imgmods))


def solve_homomorphism(
    images: Sequence[Sequence[int]],
    unknown_moduli: Sequence[int],
    image_moduli: Sequence[int],
    target: Sequence[int],
) -> Optional[Vector]:
    """A particular ``x`` with ``sum_j x_j * images[j] = target``, or None."""
    imgmods = tuple(int(m) for m in image_moduli)
    images = [_reduced(img, imgmods) for img in images]
    graph = homomorphism_graph(images, unknown_moduli, imgmods)
    return head_solve(graph, len(imgmods), target)


def annihilator_rows(matrix: ResidueMatrix) -> ResidueMatrix:
    """Annihilator of the row span under the standard pairing: the tails
    of the graph rows (``_annihilator_graph``) whose head vanishes."""
    return head_kernel(_annihilator_graph(matrix), len(matrix.rows))


def _annihilator_graph(matrix: ResidueMatrix) -> ResidueMatrix:
    """Graph rows, the head one column per row of ``matrix``, whose
    head-vanishing tails span the annihilator of its rows: x and chi over
    moduli m pair to ``sum_j x_j chi_j / m_j`` modulo 1, so chi annihilates
    the span iff ``sum_j g_j (L/m_j) chi_j = 0 (mod L)`` for every
    generator ``g``, with ``L`` the common denominator: the kernel of the
    map sending the j-th unit to the column ``(g_j (L/m_j))_g``."""
    moduli = matrix.moduli
    L = lcm(*moduli)
    columns = zip(*matrix.rows) if matrix.rows else [()] * len(moduli)
    # g_j (L/m_j) < L, kept as g_j if m_j = L; m_j g_j (L/m_j) = 0 mod L.
    images = [
        col if m == L else tuple(g * (L // m) for g in col) for col, m in zip(columns, moduli)
    ]
    return homomorphism_graph(images, moduli, tuple(L for _ in matrix.rows))


def intersect_rows(a: ResidueMatrix, b: ResidueMatrix) -> ResidueMatrix:
    """Intersection of two spans, read off the Zassenhaus block matrix."""
    if a.moduli != b.moduli:
        raise ValueError("column moduli mismatch")
    zero = (0,) * a.width
    rows = tuple(row + row for row in a.rows) + tuple(row + zero for row in b.rows)
    return head_kernel(_trusted(a.moduli + a.moduli, rows), a.width)


# ---------------------------------------------------------------------------
# Invariant factors.  ``quotient_invariants`` counts them on Howell forms,
# prime by prime; no Smith form is computed.  A cyclic basis, where one is
# wanted, is the decomposition of ``structure.cyclic_product_decomposition``.
# ---------------------------------------------------------------------------


def _level_counts(
    rows: Sequence[Vector], den: Sequence[Vector], moduli: Vector, p: int, order: int
) -> list[int]:
    """r_i = log_p(|p^i·X_p + D_p| / |p^(i+1)·X_p + D_p|) for i = 0, 1, ...
    while r_i > 0, with X = span(``rows``) of order ``order`` and D =
    span(``den``), both over ``moduli``; X_p and D_p are their images in the
    p-primary part, column j reduced modulo the p-part q_j of m_j (1 when
    p does not divide m_j).

    Without ``den``, |X_p| is the p-part of ``order``, and p^i·X_p is X_p
    reduced modulo q_j / p^i (p^i·x -> x mod q/p^i maps p^i·Z/q onto
    Z/(q/p^i)), so each level is a span over smaller moduli, spanned by the
    Howell rows of the level before.  With ``den`` every level is a span
    over the q_j, down to |D_p| when p^i kills X_p.
    """
    mods = tuple(primary_part(m, p)[0] for m in moduli)

    def span_order(vectors: Iterable[Vector]) -> tuple[tuple[Vector, ...], int]:
        # The Howell rows of the nonzero ``vectors`` over ``mods``, and
        # their span's order; no Howell form when every vector is zero.
        nonzero = tuple(v for v in vectors if any(v))
        if not nonzero:
            return (), 1
        canon, _, products = _entry(howell_form(_trusted(mods, nonzero)).rows, mods)
        return canon, products[-1]

    if den:
        den_p = [tuple(map(mod, v, mods)) for v in den]
        floor = span_order(den_p)[1]
        sizes, scale = [], 1
        while not sizes or sizes[-1] > floor:
            scaled = [tuple(scale * e % q for e, q in zip(v, mods)) for v in rows]
            sizes.append(span_order(scaled + den_p)[1])
            scale *= p
    else:
        size = 1
        while order % p == 0:
            order //= p
            size *= p
        sizes = [size]
        while size > 1:
            # One level down: every q_j / p, the first from ``rows``, each
            # later one from the Howell rows of the level before.
            mods = tuple(q // p or 1 for q in mods)
            rows, size = span_order(tuple(map(mod, v, mods)) for v in rows)
            sizes.append(size)
    counts = []
    for big, small in zip(sizes, sizes[1:]):
        ratio, count = big // small, 0
        while ratio > 1:
            ratio //= p
            count += 1
        counts.append(count)
    return counts


def quotient_invariants(
    numerator: ResidueMatrix, denominator_rows: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    """Invariant factors of Q = (span(numerator) + D) / D, D = span(denominator).

    Ascending, each dividing the next, all >= 2; empty for a trivial
    quotient.  They are counted on Howell forms, with no Smith form:

    * Q is the direct sum of its p-primary parts Q_p over the primes p of
      |X|, X = span(numerator).  Reducing column j modulo the p-part q_j of
      m_j (``primary_part``) projects the ambient onto its p-primary part,
      so Q_p = (X_p + D_p) / D_p for the images X_p and D_p.
    * If Q_p = Z/p^λ_1 + ... + Z/p^λ_k, then p^i·Q_p = sum of
      Z/p^max(λ_t - i, 0), so |p^i·Q_p| / |p^(i+1)·Q_p| = p^r_i with
      r_i = #{t : λ_t > i}, the number of cyclic factors of order above
      p^i.  As p^i·Q_p = (p^i·X_p + D_p) / D_p, |D_p| cancels:
      r_i = log_p(|p^i·X_p + D_p| / |p^(i+1)·X_p + D_p|) (``_level_counts``).
    * The r_i determine the λ_t: λ_t = #{i : r_i > t}, ordered descending.
      The t-th largest invariant factor is the product over p of p^λ_t.

    Every order is a product of Howell pivot orders; |X| is read off the
    numerator's own Howell form (``_counted_invariants``).
    """
    canon = howell_form(numerator)
    return _counted_invariants(canon, denominator_rows, _entry(canon.rows, canon.moduli)[2][-1])


def _counted_invariants(
    canon: ResidueMatrix, denominator_rows: Sequence[Sequence[int]], order: int
) -> tuple[int, ...]:
    """``quotient_invariants`` of a numerator given as its Howell form
    ``canon``, which a code's basis already is, of order ``order``, which
    its owner already holds."""
    if not canon.rows:
        return ()
    moduli = canon.moduli
    den = [_reduced(row, moduli) for row in denominator_rows]
    # Pivot orders divide their moduli: the primes of |X| are among theirs.
    primes = sorted({p for m in set(moduli) for p in _primes(m) if order % p == 0})
    factors: list[int] = []
    for p in primes:
        counts = _level_counts(canon.rows, den, moduli, p, order)
        for t in range(counts[0] if counts else 0):
            power = p ** sum(1 for r in counts if r > t)
            if t < len(factors):
                factors[t] *= power
            else:
                factors.append(power)
    return tuple(reversed(factors))


def smith_invariants(matrix: ResidueMatrix) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of the subgroup X spanned by the rows.

    They are counted, with no Smith form: this is ``quotient_invariants``
    with D = 0, whose docstring gives the proof.
    """
    return quotient_invariants(matrix, [])
