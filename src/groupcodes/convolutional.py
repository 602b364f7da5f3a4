"""Time-invariant codes over a fixed symbol group via window systems.

A convolutional code is given either by image taps (generators whose shifts
span the code) or by kernel taps (checks h with sum_t pairing(w_{k+t}, h_t)
= 0 at every shift k).  The time axis is one-sided; windows [0, n) of the
code and of its finite-support part are exact: cut windows are reads of one
window per code, those that need an infinite tail of one of proved length.
A read gives rows that span the window and the window's exact order, with
no code built.
The weak verdicts stop at a proved window; only the strong-index search is
heuristic, and past its horizon it reports "unknown", not a theorem.

One-sided boundary effects are real: the closure of the shift span of the
single binary tap (1, 1) is the full product, because every prefix can be
completed on the right.  Asymptotic structure therefore lives in the
finite-support window system, which is what the controllability machinery
here analyzes; the theorem chain (weakly controllable, controllable and
strongly controllable are equivalent for closed time-invariant codes)
justifies gating the strong index by the weak verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Union

from .codes import BlockCode, SequenceSpace, _cached, _PrefixTable, _projection
from .control import control_profile
from .duality import is_annihilator
from .groups import FiniteAbelianGroup
from .linalg import Vector, _trusted, annihilator_rows, howell_form

__all__ = [
    "ConvolutionalCode",
    "WeakControllabilityVerdict",
    "StrongControllabilityVerdict",
    "window_code",
    "zero_extension_window",
    "local_window",
    "weak_controllability",
    "strong_controllability_index",
    "dual_convolutional",
    "weak_observability",
    "verify_window_duality",
]


def _normalize_tap(tap: Sequence[Sequence[int]], symbol: FiniteAbelianGroup):
    if any(len(step) != len(symbol.moduli) for step in tap):
        raise ValueError("tap step width does not match the symbol group")
    steps = [tuple(int(e) % m for e, m in zip(step, symbol.moduli)) for step in tap]
    while steps and not any(steps[-1]):
        steps.pop()
    return tuple(steps)


@dataclass(frozen=True)
class ConvolutionalCode:
    """A time-invariant code over one symbol group, in image or kernel form.

    Leading zero steps in a tap are significant on the one-sided axis (they
    suppress the earliest shift), so only trailing zero steps are stripped.
    """

    symbol: FiniteAbelianGroup
    form: str
    taps: tuple[tuple[tuple[int, ...], ...], ...]
    horizon: Optional[int] = None

    def __post_init__(self) -> None:
        if self.form not in ("image", "kernel"):
            raise ValueError("form must be 'image' or 'kernel'")
        taps = (_normalize_tap(tap, self.symbol) for tap in self.taps)
        object.__setattr__(self, "taps", tuple(sorted(t for t in taps if t)))

    @_cached
    def memory(self) -> int:
        return max((len(t) for t in self.taps), default=1)

    @property
    def analysis_horizon(self) -> int:
        return self.horizon if self.horizon is not None else 8 * self.memory

    @_cached
    def state_length(self) -> int:  # s: a state is a word on s symbols
        return max(self.memory - 1, 1)

    @_cached
    def _reads(self) -> int:  # the long windows serve reads n <= this
        return max(self.state_length, min(self.analysis_horizon, REPORT_WINDOWS))

    @_cached
    def _settled(self) -> dict[tuple, tuple]:
        return {}  # chain -> settle step and long window (_settled_window)

    @_cached
    def _cut(self) -> list:
        # The one cut window, rebuilt by a longer read (_cut_kept): a code
        # in image form, its prefix table in kernel form; every cut read
        # takes its rows and order off it.
        return []

    @_cached
    def _dual(self) -> "ConvolutionalCode":
        form = "kernel" if self.form == "image" else "image"
        dual = ConvolutionalCode(self.symbol, form, self.taps, self.horizon)
        dual.__dict__["_dual"] = self  # the dual's dual is this code
        return dual


def _shift_rows(conv: ConvolutionalCode, n: int, cut: bool) -> tuple[Vector, ...]:
    """The shifts of the taps on [0, n), all cut at the boundary or only
    those inside, as flat rows over G^n (reduced by ``_normalize_tap``;
    shifts add zeros)."""
    width = len(conv.symbol.moduli)
    shifts, size = [], n * width
    for tap in conv.taps:
        flat = tuple(e for step in tap for e in step)
        for s in range(n if cut else n - len(tap) + 1):
            shifts.append(((0,) * (s * width) + flat + (0,) * size)[:size])
    return tuple(shifts)


def _window(conv: ConvolutionalCode, n: int, cut: bool) -> BlockCode:
    """The shifts of the taps on [0, n), all cut at the boundary or only those
    inside (``local_window``): their span, or in kernel form their annihilator.

    A word satisfies the check h at shift k exactly when it pairs to zero
    with the row of h shifted by k, so the kernel code on [0, n) is the
    annihilator of the image code's shift rows (Pontryagin duality).
    """
    space = SequenceSpace((conv.symbol,) * n)
    rows = _trusted(space.flat_moduli, _shift_rows(conv, n, cut))
    if conv.form == "image":
        return BlockCode(space, rows)
    return BlockCode.from_howell(space, annihilator_rows(rows).rows)


def _reversed_window(conv: ConvolutionalCode, n: int, cut: bool) -> _PrefixTable:
    """``_window(conv, n, cut)`` built straight into reversed form, as the
    prefix table of its column-reversed Howell rows: the Howell form of the
    reversed shift rows in image form, their annihilator in kernel form.
    The pairing is a sum over the columns, so the annihilator of the
    reversed rows is the reversed annihilator."""
    space = SequenceSpace((conv.symbol,) * n)
    shifts = tuple(row[::-1] for row in _shift_rows(conv, n, cut))
    rows = _trusted(space.flat_moduli[::-1], shifts)
    canon = howell_form(rows) if conv.form == "image" else annihilator_rows(rows)
    return _PrefixTable(space, canon.rows)


def local_window(conv: ConvolutionalCode, n: int) -> BlockCode:
    """The tap-local window system: fully contained structure only.

    Image form: span of the shifts entirely inside [0, n).  Kernel form:
    solutions of the checks entirely inside [0, n).  This is the
    shift-invariant interior the strong-controllability search analyzes.
    """
    return _window(conv, n, cut=False)


# Reports (``cli``) read n = 1..min(horizon, REPORT_WINDOWS); kept windows cover them.
REPORT_WINDOWS = 6

# A window of a code read off a kept window: rows that span it, and its
# order.  Reads off a code's own rows or a prefix-table entry give its
# Howell rows; one-sided reads (``_PrefixTable.vanishing``) give rows that
# are a Howell form in reversed column order.
Window = tuple[tuple[Vector, ...], int]


def _cut_kept(conv: ConvolutionalCode, length: int) -> Union[BlockCode, _PrefixTable]:
    """The cut window kept on the code, rebuilt at ``length`` when shorter:
    ``_window(conv, L, cut=True)`` in image form, whose reads are
    projections; in kernel form its reversed form (``_reversed_window``),
    whose reads are all of words vanishing from some end on."""
    kept = conv._cut
    if not kept or kept[0].space.horizon < length:
        first = max(min(conv.analysis_horizon, REPORT_WINDOWS), conv.state_length + 1)
        build = _window if conv.form == "image" else _reversed_window
        kept[:] = [build(conv, max(length, first), cut=True)]
    return kept[0]


def _cut_code(conv: ConvolutionalCode, length: int) -> BlockCode:
    """A code whose windows [0, n), n <= ``length``, are those of
    ``_window(conv, length, cut=True)``: the kept cut window itself in image
    form, as the shifts from ``length`` on vanish on [0, length); in kernel
    form entry ``length`` of its prefix table, its words vanishing from
    ``length`` on, as a zero extension meets the checks at shifts
    k >= ``length`` trivially."""
    kept = _cut_kept(conv, length)
    return kept if conv.form == "image" else kept.prefix_code(length)


def _cut_window(conv: ConvolutionalCode, n: int) -> Window:
    """``_window(conv, n, cut=True)`` as rows and order, read off the kept
    cut window: a projection in image form, a one-sided read (the words
    vanishing from n on, cut to [0, n)) in kernel form."""
    kept = _cut_kept(conv, n)
    return _projection(kept, 0, n) if conv.form == "image" else kept.vanishing(n)


# Chains of ``_settled_window``: (window builder, past); past = 1 when the
# read keeps the words supported in [0, n), which needs s symbols past n.
# Those windows are only read one-sided, so they are built in reversed form.
_CODE = (local_window, 0)
_FINITE_SUPPORT = (_cut_code, 0)
_ZERO_EXTENSION = (partial(_reversed_window, cut=False), 1)


def _settled_window(conv: ConvolutionalCode, chain: tuple, n: int) -> Window:
    """The window [0, n) of a chain, as rows and order, read off a window of
    settled length.

    Let s = max(memory - 1, 1).  A check spans at most s + 1 symbols, so on
    [0, L + 1), L >= s, it lies in [0, s + 1) or in [1, L + 1): each chain
    X_j = read(build(s + j), s) obeys X_{j+1} = F(X_j) for a monotone F on
    the subgroups of G^s.  Code: S_j = proj_[0,s) local_window(s + j);
    x is in S_{j+1} iff some a puts (x, a) in local_window(s + 1) and
    (x_1..x_{s-1}, a) in S_j; S_1 <= S_0.  Finite support: R_j, the states
    reaching the zero tail in j symbols; the same F, R_0 <= R_1.  Image
    zero extension: P_j, the [0, s) parts of the shift combinations in
    [0, s + j) vanishing on [s, s + j); splitting off the shift-0
    coefficients c, P_{j+1} = {c.taps + (0, p_0..p_{s-2}) : p in P_j,
    c.taps + p_{s-1} = 0 at s}, P_0 <= P_1.  So the first repeat
    X_{j*+1} = X_{j*} fixes X_j for every j >= j*, and j* <= s * Omega(|G|):
    a strict step moves |X_j| by a prime.  Each step compares the Howell
    rows of X_j on G^s, which are equal exactly when the subgroups are.

    Reads: a word on [0, n) is in proj_[0,n) local_window(L), L >= max(n, s),
    iff it meets the checks inside [0, n) and its last s symbols (for n < s,
    a state it prefixes) lie in S_{L-max(n,s)}; S_{j*} = F(S_{j*}) extends
    forever, so L >= max(n, s) + j* gives the code window, and R likewise
    the finite support.  An image combination vanishing from n on is its
    shifts starting before n, ending before n + s, plus the rest, whose
    [n, n + s) part cancels theirs and lies in P_{L-n-s} shifted by n; so
    L >= n + s + j* gives the zero-extension window.  The long window kept
    per chain has L = reads + j* + past * s, reads = max(s, min(N,
    REPORT_WINDOWS)), so it serves every n <= reads; a longer read builds
    its own.  A read is ``codes._projection`` of the window, or when
    past = 1 the one-sided read of its words vanishing from n on
    (``_PrefixTable.vanishing``): no code is built for it.  One-sided reads
    are Howell rows in reversed column order, canonical as well, so the
    settle steps compare them the same way.  The finite-support chain
    reads the prefix table of the kept cut window (``_cut_code``).
    """
    build, past = chain
    s = conv.state_length

    def read(w, b: int) -> Window:
        return w.vanishing(b) if past else _projection(w, 0, b)

    if chain not in conv._settled:
        step, states = 0, read(build(conv, s), s)[0]
        while (following := read(build(conv, s + step + 1), s)[0]) != states:
            step, states = step + 1, following
        conv._settled[chain] = step, build(conv, conv._reads + step + past * s)
    step, window = conv._settled[chain]
    if n > conv._reads:
        window = build(conv, n + step + past * s)
    return read(window, n)


def _code_window(conv: ConvolutionalCode, n: int) -> Window:
    """The window [0, n) of the code: read off the cut window in image form
    (the shifts from n on vanish on [0, n)), off its settled chain in
    kernel form."""
    if conv.form == "image":
        return _cut_window(conv, n)
    return _settled_window(conv, _CODE, n)


def _zero_extension_window(conv: ConvolutionalCode, n: int) -> Window:
    """The words on [0, n) whose zero extension is a finite-support
    codeword: read off the cut window in kernel form (a zero extension meets
    the checks at shifts k >= n trivially), off the settled chain of the
    shift combinations vanishing from n on in image form."""
    if conv.form == "kernel":
        return _cut_window(conv, n)
    return _settled_window(conv, _ZERO_EXTENSION, n)


def _block_window(conv: ConvolutionalCode, n: int, read) -> BlockCode:
    """The rows a reader gives for [0, n), canonicalized as a code on
    [0, n); the space refuses n < 1 before anything is read."""
    space = SequenceSpace((conv.symbol,) * n)
    return BlockCode(space, _trusted(space.flat_moduli, read(conv, n)[0]))


def window_code(conv: ConvolutionalCode, n: int) -> BlockCode:
    """The window [0, n) of the code: exact image of the projection.

    Image form: span of all shift restrictions, boundary cuts included.
    Kernel form: the words on [0, n) that extend to codewords.  A thin
    wrapper: the rows are those the analyses read (``_code_window``), off
    the kept cut window or the settled chain, canonicalized as a code on
    [0, n).
    """
    return _block_window(conv, n, _code_window)


def zero_extension_window(conv: ConvolutionalCode, n: int) -> BlockCode:
    """Words on [0, n) whose zero extension is a finite-support codeword.

    A thin wrapper: the rows are those the analyses read
    (``_zero_extension_window``), canonicalized as a code on [0, n).
    """
    return _block_window(conv, n, _zero_extension_window)


@dataclass(frozen=True)
class WeakControllabilityVerdict:
    """Density of finite-support codewords, checked window by window."""

    holds: bool
    horizon: int
    witness: Optional[int] = None
    window_order: Optional[int] = None
    finite_support_order: Optional[int] = None

    def render(self) -> str:
        if self.holds:
            return f"weakly controllable: holds up to horizon {self.horizon}"
        return (
            f"weakly controllable: fails at window length {self.witness} "
            f"(window code order {self.window_order}, finite-support part "
            f"order {self.finite_support_order})"
        )


def weak_controllability(conv: ConvolutionalCode) -> WeakControllabilityVerdict:
    """Compare the windows n = 1..min(N, s) of the code with their
    finite-support parts.  Image codes are spanned by finite-support words
    and hold with no window built.  For kernel codes the finite-support part
    is a subgroup of the code window: the witness is the first n where the
    orders differ.

    No later window differs first.  For n >= s let T_n be the states (last
    s symbols) of local_window(n): dropping the first symbol of a word of
    local_window(n + 1) keeps its tail, so T_{n+1} <= T_n.  The code window
    is {x in local_window(n) : tail in S*} and its finite-support part
    {x in local_window(n) : tail in R*}, R* <= S* (``_settled_window``), so
    at n >= s they differ iff some state of T_n in S* is not in R*; that
    state is in T_s, so they differ at n = s too.
    """
    N = conv.analysis_horizon
    if conv.form == "image":
        return WeakControllabilityVerdict(holds=True, horizon=N)
    for n in range(1, min(N, conv.state_length) + 1):
        full = _code_window(conv, n)[1]
        inner = _settled_window(conv, _FINITE_SUPPORT, n)[1]
        if full != inner:
            return WeakControllabilityVerdict(False, N, n, full, inner)
    return WeakControllabilityVerdict(holds=True, horizon=N)


@dataclass(frozen=True)
class StrongControllabilityVerdict:
    """Outcome of the bounded search for a controllability index."""

    status: str  # "stabilized" | "not-controllable" | "unknown-beyond-horizon"
    index: Optional[int]
    horizon: int
    witness: Optional[int] = None

    @property
    def is_finite(self) -> bool:
        return self.status == "stabilized"

    def render(self) -> str:
        if self.status == "stabilized":
            return f"strongly controllable with index {self.index}"
        if self.status == "not-controllable":
            return (
                f"not controllable within horizon {self.horizon} "
                f"(weak controllability fails at window {self.witness})"
            )
        return f"no index found up to horizon {self.horizon}; unknown beyond it"


def strong_controllability_index(
    conv: ConvolutionalCode,
) -> StrongControllabilityVerdict:
    """Effective search for the controller memory on the local windows.

    Weak failure settles the question through the equivalence chain for
    closed time-invariant codes.  Otherwise the blockwise control index of
    the tap-local window system is computed for growing window lengths and
    accepted once it agrees twice in a row; running out of horizon yields
    an honest unknown verdict rather than a claim.
    """
    weak = weak_controllability(conv)
    N = conv.analysis_horizon
    if not weak.holds:
        return StrongControllabilityVerdict(
            status="not-controllable", index=None, horizon=N, witness=weak.witness
        )
    index = previous = None  # "agree twice": the first repeated index
    for n in range(min(max(2 * conv.memory, 2), N), N + 1):
        current = control_profile(local_window(conv, n)).index
        if current == previous:
            index = current
            break
        previous = current
    status = "unknown-beyond-horizon" if index is None else "stabilized"
    return StrongControllabilityVerdict(status=status, index=index, horizon=N)


def dual_convolutional(conv: ConvolutionalCode) -> ConvolutionalCode:
    """The dual code: image and kernel forms swap, taps unchanged.

    Under the pairing convention here (checks read sum_t pairing(w_{k+t}, h_t)
    with increasing time), the annihilator of the shift span of taps T is
    exactly the kernel code with checks T, so the swap needs no time reversal;
    dual window identities are verified by ``verify_window_duality``.  Code
    and dual keep each other (and so their settled and cut windows).
    """
    return conv._dual


def verify_window_duality(conv: ConvolutionalCode, n: int) -> bool:
    """Exact per-window duality, by pairing and counting: the annihilator of
    the window of the code equals the zero-extension window of the dual.
    Both are read as rows and orders (``_code_window``,
    ``_zero_extension_window``) and paired over the moduli of G^n."""
    (x, x_order), (y, y_order) = _code_window(conv, n), _zero_extension_window(conv._dual, n)
    return is_annihilator(x, x_order, y, y_order, conv.symbol.moduli * n)


def weak_observability(conv: ConvolutionalCode) -> WeakControllabilityVerdict:
    """Whether the finite-support part equals that of the product closure,
    on the windows n = 1..min(N, s), by pairing and counting.

    The closure's internally supported window is the annihilator of the
    finite-support projection of the dual code; the code's own
    finite-support window is the annihilator of the dual's full window.
    Kernel codes pass at once: both are the annihilator of the same cut
    shift rows.  For image codes, by window duality, the comparison at n is
    the dual kernel code's ``weak_controllability`` one, so n <= s suffices.
    """
    N = conv.analysis_horizon
    if conv.form == "kernel":
        return WeakControllabilityVerdict(holds=True, horizon=N)
    for n in range(1, min(N, conv.state_length) + 1):
        finite, finite_order = _zero_extension_window(conv, n)
        dual_part, dual_order = _settled_window(conv._dual, _FINITE_SUPPORT, n)
        if not is_annihilator(
            finite, finite_order, dual_part, dual_order, conv.symbol.moduli * n
        ):
            closure = conv.symbol.cardinality**n // dual_order
            return WeakControllabilityVerdict(False, N, n, closure, finite_order)
    return WeakControllabilityVerdict(holds=True, horizon=N)
