"""Time-invariant codes over a fixed symbol group via window systems.

A convolutional code is given either by image taps (generators whose shifts
span the code) or by kernel taps (checks h with sum_t pairing(w_{k+t}, h_t)
= 0 at every shift k).  The time axis is one-sided; windows [0, n) of the
code, of its finite-support part and of its zero extensions are exact.
One builder makes every window (``_window``): the taps' shifts inside
[0, n) and a set of terminal rows on its last s symbols, spanned in image
form and annihilated in kernel form.  The terminal rows are the cut rows,
none, or a state subgroup settled on (s + 1)-symbol windows by one loop
(``_settled``), so one window per code and read kind serves every read
(``_read``).  A read gives rows that span the window and the window's
exact order, with no code built.
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

from bisect import bisect_left
from typing import NamedTuple, Optional, Sequence, Union

from .codes import BlockCode, SequenceSpace, _cached, _gap_lengths, _PrefixTable, _projection
from .duality import is_annihilator
from .groups import FiniteAbelianGroup
from .linalg import (
    Vector, _annihilator_graph, _howell_record, _tails, _trusted, annihilator_rows, howell_form
)

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


class ConvolutionalCode:
    """A time-invariant code over one symbol group, in image or kernel form.

    Leading zero steps in a tap are significant on the one-sided axis (they
    suppress the earliest shift), so only trailing zero steps are stripped.
    """

    def __init__(
        self, symbol: FiniteAbelianGroup, form: str, taps: Sequence[Sequence[Sequence[int]]],
        horizon: Optional[int] = None,
    ) -> None:
        self.symbol, self.form, self.taps, self.horizon = symbol, form, taps, horizon
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.form not in ("image", "kernel"):
            raise ValueError("form must be 'image' or 'kernel'")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        taps = (_normalize_tap(tap, self.symbol) for tap in self.taps)
        self.taps = tuple(sorted(t for t in taps if t))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.symbol == other.symbol and self.form == other.form
            and self.taps == other.taps and self.horizon == other.horizon
        )

    def __hash__(self) -> int:
        return hash((self.symbol, self.form, self.taps, self.horizon))

    def __repr__(self) -> str:
        return (
            f"ConvolutionalCode(symbol={self.symbol!r}, form={self.form!r}, "
            f"taps={self.taps!r}, horizon={self.horizon!r})"
        )

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
    def _reads(self) -> int:  # one window per read kind serves reads n <= this
        return max(self.state_length, min(self.analysis_horizon, REPORT_WINDOWS))

    @_cached
    def _cut_rows(self) -> tuple[Vector, ...]:
        # The shifts crossing the end of [0, s), cut there: placed on the
        # last s symbols of [0, n), n >= s, the shifts crossing its end.
        return _shift_rows(self, self.state_length, cut=True)

    @_cached
    def _chains(self) -> dict[str, tuple]:
        return {}  # chain -> settle step and settled rows (``_settled``)

    @_cached
    def _windows(self) -> dict[tuple, Union[BlockCode, _PrefixTable]]:
        return {}  # (terminal rows, one-sided) -> the window reads take (``_read``)

    @_cached
    def _dual(self) -> "ConvolutionalCode":
        form = "kernel" if self.form == "image" else "image"
        dual = ConvolutionalCode(self.symbol, form, self.taps, self.horizon)
        # The dual's dual is this code, and the pair settles its chains once.
        dual.__dict__.update(_dual=self, _chains=self._chains)
        return dual


def _shift_rows(conv: ConvolutionalCode, n: int, cut: bool = False) -> tuple[Vector, ...]:
    """The shifts of the taps inside [0, n) or, with ``cut``, those that
    cross its right end, cut there, as flat rows over G^n (reduced by
    ``_normalize_tap``; shifts add zeros)."""
    width = len(conv.symbol.moduli)
    shifts, size = [], n * width
    for tap in conv.taps:
        flat = tuple(e for step in tap for e in step)
        for k in range(max(n - len(tap) + 1, 0), n) if cut else range(n - len(tap) + 1):
            shifts.append(((0,) * (k * width) + flat + (0,) * size)[:size])
    return tuple(shifts)


def _window(
    conv: ConvolutionalCode, n: int, terminal: tuple[Vector, ...],
    reverse: bool = False, record: bool = False,
) -> tuple[Vector, ...]:
    """The window [0, n) with terminal rows ``terminal``, as Howell rows:
    the span (image form) or the annihilator (kernel form) of the taps'
    shifts inside [0, n) and of the rows ``terminal`` over G^s placed on
    its last s symbols (n >= s when there are any).  With ``reverse`` the
    rows are those of the window with its columns reversed, as a prefix
    table takes them for one-sided reads; with ``record``, unfinished: one
    owned record (``linalg._howell_record``), in kernel form that of the
    annihilator graph with its head-vanishing rows cut to their tails (``_tails``).

    A word meets the check h at shift k exactly when it pairs to zero with
    the row of h shifted by k, so a kernel window is the annihilator of the
    rows of the image window (Pontryagin duality): the words meeting the
    checks inside [0, n) whose last s symbols lie in the annihilator of the
    terminal rows.  The pairing is a sum over the columns, so the
    annihilator of the reversed rows is the reversed annihilator.  With no
    terminal rows this is the local window; with the cut rows
    (``_cut_rows``) it is the code window in image form and the
    zero-extension window in kernel form; the other windows end in the
    settled rows of a chain (``_settled``).
    """
    moduli = conv.symbol.moduli * n
    rows = _shift_rows(conv, n) + tuple((0,) * (len(moduli) - len(row)) + row for row in terminal)
    if reverse:
        rows, moduli = tuple(row[::-1] for row in rows), moduli[::-1]
    matrix = _trusted(moduli, rows)
    if not record:
        return (howell_form(matrix) if conv.form == "image" else annihilator_rows(matrix)).rows
    if conv.form == "image":
        return _howell_record(matrix)[0]
    # The graph's head: one column per row of the matrix.
    return _tails(_howell_record(_annihilator_graph(matrix))[0], len(rows))


def local_window(conv: ConvolutionalCode, n: int) -> BlockCode:
    """The tap-local window system: fully contained structure only.

    Image form: span of the shifts entirely inside [0, n).  Kernel form:
    solutions of the checks entirely inside [0, n).  The window with no
    terminal rows (``_window``).
    """
    return BlockCode.from_howell(SequenceSpace((conv.symbol,) * n), _window(conv, n, ()))


# Reports (``cli``) read n = 1..min(horizon, REPORT_WINDOWS); kept windows cover them.
REPORT_WINDOWS = 6

# A window of a code read off a kept window: rows that span it, and its
# order.  Projections give its Howell rows; one-sided reads
# (``_PrefixTable.vanishing``) give rows that are a Howell form in reversed
# column order.
Window = tuple[tuple[Vector, ...], int]


def _settled(conv: ConvolutionalCode, chain: str) -> tuple[int, tuple[Vector, ...]]:
    """(j*, rows of Y*) of the chain ``"local"`` or ``"cut"``: the settle
    step and the settled state subgroup Y* of G^s, by one loop on windows
    of s + 1 symbols, run in image form on the code or its dual (the two
    share their chains).

    Let s = max(memory - 1, 1), so a tap spans at most s + 1 symbols.  For
    Y <= G^s let F(Y) be the [0, s) parts of the words of the image window
    [0, s + 1) with terminal rows Y (``_window``) that vanish at s.  From
    Y_0, the image window [0, s) with no terminal rows ("local") or with
    the cut rows ("cut"), Y_{j+1} = F(Y_j) is
      P_j: the [0, s) parts of the combinations of the shifts inside
           [0, s + j) that vanish on [s, s + j), or
      Q_j: the same for the shifts starting in [0, s + j), cut at s + j:
    split such a combination on [0, s + j + 1) into its shifts at 0 and
    the rest, which moved back one symbol is a combination of the same
    kind on [0, s + j) with [0, s) part in Y_j.  The shifts inside
    [1, s + 1) add nothing, as both chains hold the shifts inside [0, s).
    P_0 <= P_1, Q_1 <= Q_0 and F is monotone, so the first repeat
    Y_{j*+1} = Y_{j*} fixes Y_j for every j >= j*, and j* <= s * Omega(|G|):
    a strict step moves |Y_j| by a prime.  Each step compares the Howell
    rows of Y_j in reversed column order (a one-sided read), which are
    equal exactly when the subgroups are.  Both chains step by the same F,
    so a chain that reaches the state the other settled at stops there
    with no step.

    The annihilator of a projection is the part of the annihilator
    supported on it, so for the kernel code with these taps P_j is S_j-perp,
    S_j = proj_[0,s) of its local window [0, s + j), and Q_j is R_j-perp,
    R_j the states that reach the zero tail in j symbols.  With Y* on the
    last s symbols of [0, L), L >= s, ``_window`` therefore gives
      image form, P*: the finite combinations of shifts vanishing from L
           on (the shifts starting before L - s lie inside [0, L), the
           rest moved back by L - s vanish from s on), the zero-extension
           window [0, L);
      kernel form, P*: the words meeting the checks inside [0, L) whose
           state S* extends forever, the code window [0, L);
      kernel form, Q*: those whose state R* reaches the zero tail, the
           finite-support window [0, L).
    """
    chains = conv._chains
    if chain not in chains:
        image = conv if conv.form == "image" else conv._dual
        s, width = conv.state_length, len(conv.symbol.moduli)

        def states(n: int, terminal: tuple[Vector, ...], head: int) -> tuple[Vector, ...]:
            return tuple(row[::-1] for row in _tails(_window(image, n, terminal, True), head))

        fixed = {rows for _, rows in chains.values()}  # F fixes the other chain's Y*
        step, current = 0, states(s, () if chain == "local" else conv._cut_rows, 0)
        while current not in fixed and (following := states(s + 1, current, width)) != current:
            step, current = step + 1, following
        chains[chain] = step, current
    return chains[chain]


# The read kinds by form: the chain whose settled rows end the window
# (None: the cut rows) and whether its reads are one-sided.  Image codes
# are spanned by their finite-support words.
_KINDS = {
    "code": {"image": (None, False), "kernel": ("local", False)},
    "finite support": {"image": (None, False), "kernel": ("cut", False)},
    "zero extension": {"image": ("local", True), "kernel": (None, True)},
}


def _read(conv: ConvolutionalCode, kind: str, n: int) -> Window:
    """The window [0, n) of a read kind, as rows and order: ``"code"``,
    the window of the code; ``"finite support"``, the projection onto
    [0, n) of its finite-support words; ``"zero extension"``, the words on
    [0, n) whose zero extension is a finite-support codeword.  Read off the
    one window the code keeps for its terminal rows (``_settled`` gives
    them; kinds with equal ones, such as the code and finite-support
    windows of a weakly controllable kernel code, share it): a
    projection, or in one-sided kinds the words vanishing from n on, cut
    to [0, n).  The window is built max(n, R) long, R = max(s, min(N,
    REPORT_WINDOWS)), so it serves every read n <= R; only a longer read
    (through the public wrappers) builds it again, at its own length.  No
    code is built for a read."""
    window = _kept(conv, kind, n)
    return window.vanishing(n) if isinstance(window, _PrefixTable) else _projection(window, 0, n)


def _order(conv: ConvolutionalCode, kind: str, n: int) -> int:
    """The order ``_read`` gives in a two-sided kind (the only ones read
    for an order alone), with no row cut: the product of the pivot orders
    of the kept window's rows with pivot before offset(n)."""
    _, columns, products = _kept(conv, kind, n)._record
    return products[bisect_left(columns, n * len(conv.symbol.moduli))]


def _kept(conv: ConvolutionalCode, kind: str, n: int) -> Union[BlockCode, _PrefixTable]:
    """The window a read kind keeps for reads up to n (``_read``): a prefix
    table in one-sided kinds, a code in the others."""
    chain, one_sided = _KINDS[kind][conv.form]
    terminal = conv._cut_rows if chain is None else _settled(conv, chain)[1]
    window = conv._windows.get((terminal, one_sided))
    if window is None or window.space.horizon < n:
        space = SequenceSpace((conv.symbol,) * max(n, conv._reads))
        rows = _window(conv, space.horizon, terminal, one_sided)
        window = _PrefixTable(space, rows) if one_sided else BlockCode.from_howell(space, rows)
        conv._windows[terminal, one_sided] = window
    return window


def _block_window(conv: ConvolutionalCode, kind: str, n: int) -> BlockCode:
    """The rows ``_read`` gives for [0, n) in a read kind, canonicalized as
    a code on [0, n); the space refuses n < 1 before anything is read."""
    space = SequenceSpace((conv.symbol,) * n)
    return BlockCode(space, _trusted(space.flat_moduli, _read(conv, kind, n)[0]))


def window_code(conv: ConvolutionalCode, n: int) -> BlockCode:
    """The window [0, n) of the code: exact image of the projection.

    Image form: span of all shift restrictions, boundary cuts included.
    Kernel form: the words on [0, n) that extend to codewords.  A thin
    wrapper: the rows are those the analyses read (``_read`` of kind
    ``"code"``), canonicalized as a code on [0, n).
    """
    return _block_window(conv, "code", n)


def zero_extension_window(conv: ConvolutionalCode, n: int) -> BlockCode:
    """Words on [0, n) whose zero extension is a finite-support codeword.

    A thin wrapper: the rows are those the analyses read (``_read`` of
    kind ``"zero extension"``), canonicalized as a code on [0, n).
    """
    return _block_window(conv, "zero extension", n)


class WeakControllabilityVerdict(NamedTuple):
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
    {x in local_window(n) : tail in R*}, R* <= S* (``_settled``), so
    at n >= s they differ iff some state of T_n in S* is not in R*; that
    state is in T_s, so they differ at n = s too.
    """
    N = conv.analysis_horizon
    if conv.form == "image":
        return WeakControllabilityVerdict(holds=True, horizon=N)
    for n in range(1, min(N, conv.state_length) + 1):
        full, inner = _order(conv, "code", n), _order(conv, "finite support", n)
        if full != inner:
            return WeakControllabilityVerdict(False, N, n, full, inner)
    return WeakControllabilityVerdict(holds=True, horizon=N)


class StrongControllabilityVerdict(NamedTuple):
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
    an honest unknown verdict rather than a claim.  Each window is built in
    reversed form as one owned record (``_window``), and its index is the
    largest gap length (``codes._gap_lengths``) counted on the orders of
    a prefix table of those rows (``codes._PrefixTable.order``), one
    unfinished forward sweep: no code is built and no form finished or
    cached.  A record suffices: the table reads only pivot orders, and a
    record's are the Howell form's.
    """
    weak = weak_controllability(conv)
    N = conv.analysis_horizon
    if not weak.holds:
        return StrongControllabilityVerdict(
            status="not-controllable", index=None, horizon=N, witness=weak.witness
        )
    index = previous = None  # "agree twice": the first repeated index
    for n in range(min(max(2 * conv.memory, 2), N), N + 1):
        rows = _window(conv, n, (), reverse=True, record=True)
        table = _PrefixTable(SequenceSpace((conv.symbol,) * n), rows)
        current = max(_gap_lengths(n, table.order))
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
    and dual keep each other, and share their settled chains.
    """
    return conv._dual


def verify_window_duality(conv: ConvolutionalCode, n: int) -> bool:
    """Exact per-window duality, by pairing and counting: the annihilator of
    the window of the code equals the zero-extension window of the dual.
    Both are read as rows and orders (``_read``) and paired over the
    moduli of G^n."""
    (x, x_order), (y, y_order) = _read(conv, "code", n), _read(conv._dual, "zero extension", n)
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
        finite, finite_order = _read(conv, "zero extension", n)
        dual_part, dual_order = _read(conv._dual, "finite support", n)
        if not is_annihilator(
            finite, finite_order, dual_part, dual_order, conv.symbol.moduli * n
        ):
            closure = conv.symbol.cardinality**n // dual_order
            return WeakControllabilityVerdict(False, N, n, closure, finite_order)
    return WeakControllabilityVerdict(holds=True, horizon=N)
