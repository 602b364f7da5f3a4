"""Time-invariant codes over a fixed symbol group via window systems.

A convolutional code is given either by image taps (generators whose shifts
span the code) or by kernel taps (checks h with sum_t pairing(w_{k+t}, h_t)
= 0 at every shift k).  The time axis is one-sided; windows [0, n) of the
code and of its finite-support part are computed exactly, with an explicit
margin-stabilization procedure where an infinite tail would otherwise be
needed.  Verdicts never claim more than the analysis horizon supports: a
search that exhausts the horizon reports "unknown", not a theorem.

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
from typing import Callable, Optional, Sequence, TypeVar

from .codes import BlockCode, SequenceSpace, window_internal, window_projection
from .control import control_profile
from .duality import dual_block_code
from .groups import FiniteAbelianGroup
from .linalg import annihilator_rows, residue_matrix

T = TypeVar("T")

__all__ = [
    "ConvolutionalCode",
    "MarginError",
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


class MarginError(RuntimeError):
    """Raised when a window computation has not stabilized at the margin."""

    def __init__(self, margin: int):
        self.margin = margin
        super().__init__(
            f"window not stabilized at margin {margin}; retry with a larger one"
        )


def _normalize_tap(tap: Sequence[Sequence[int]], symbol: FiniteAbelianGroup):
    steps = [tuple(int(e) % m for e, m in zip(step, symbol.moduli)) for step in tap]
    for step in tap:
        if len(step) != len(symbol.moduli):
            raise ValueError("tap step width does not match the symbol group")
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
        normalized = tuple(
            sorted(
                t
                for t in (_normalize_tap(tap, self.symbol) for tap in self.taps)
                if t
            )
        )
        object.__setattr__(self, "taps", normalized)

    @property
    def memory(self) -> int:
        return max((len(t) for t in self.taps), default=1)

    @property
    def analysis_horizon(self) -> int:
        return self.horizon if self.horizon is not None else 8 * self.memory

    def window_space(self, n: int) -> SequenceSpace:
        return SequenceSpace(tuple(self.symbol for _ in range(n)))


def _shifts(conv: ConvolutionalCode, n: int, cut: bool) -> list[list[int]]:
    """The shifted taps on [0, n): every shift, cut at the boundary, when
    ``cut`` is set, otherwise only the shifts lying entirely inside."""
    width = len(conv.symbol.moduli)
    rows = []
    for tap in conv.taps:
        flat = [e for step in tap for e in step]
        for s in range(n if cut else n - len(tap) + 1):
            row = [0] * (n * width)
            piece = flat[: (n - s) * width]
            row[s * width : s * width + len(piece)] = piece
            rows.append(row)
    return rows


def _window(conv: ConvolutionalCode, n: int, cut: bool) -> BlockCode:
    """The shift rows on [0, n): their span in image form, their annihilator
    in kernel form.

    A word satisfies the check h at shift k exactly when it pairs to zero
    with the row of h shifted by k, so the kernel code on [0, n) is the
    annihilator of the image code's shift rows (Pontryagin duality).  With
    ``cut`` the kernel rows impose every check overlapping the window with
    zeros assumed beyond it, which is membership of the zero extension.
    """
    space = conv.window_space(n)
    rows = residue_matrix(_shifts(conv, n, cut), space.flat_moduli)
    if conv.form == "image":
        return BlockCode(space, rows)
    return BlockCode.from_howell(space, annihilator_rows(rows).rows)


def _restrict(code: BlockCode, n: int) -> BlockCode:
    return window_projection(code, 0, n) if n < code.space.horizon else code


def _stabilize(
    evaluate: Callable[[int], T], n: int, margins: range, failed: Optional[int] = None
) -> T:
    """The "agree twice" rule: evaluate at lengths n + k for k in
    ``margins`` and return the first value equal to the one before it.

    Every window that needs an infinite tail, and the strong index, stops
    by this rule; it is a heuristic, not a theorem.  Running out of margins
    raises MarginError naming ``failed``, by default the next margin past
    the range.
    """
    previous = None
    for k in margins:
        current = evaluate(n + k)
        if current == previous:
            return current
        previous = current
    raise MarginError(margins[-1] + margins.step if failed is None else failed)


def window_code(
    conv: ConvolutionalCode, n: int, margin: Optional[int] = None
) -> BlockCode:
    """The window [0, n) of the code: exact image of the projection.

    Image form: span of all shift restrictions, boundary cuts included.
    Kernel form: solutions on the extended horizon n + margin projected back
    to [0, n); the projections for margin and margin + memory must agree,
    otherwise MarginError asks the caller to retry with more room.
    """
    if n < 1:
        raise ValueError("window length must be at least 1")
    if conv.form == "image":
        return _window(conv, n, cut=True)
    margin = conv.memory if margin is None else margin
    if margin < conv.memory:
        raise ValueError("margin must be at least the memory")
    margins = range(margin, margin + conv.memory + 1, conv.memory)
    return _stabilize(lambda M: _restrict(_window(conv, M, cut=False), n), n, margins, margin)


def zero_extension_window(
    conv: ConvolutionalCode, n: int, margin: Optional[int] = None
) -> BlockCode:
    """Words on [0, n) whose zero extension is a finite-support codeword.

    Kernel form is exact: the zero extension satisfies every check iff the
    truncated checks hold.  Image form grows the horizon until the set of
    fully contained shift combinations vanishing on [n, horizon) stabilizes
    twice in a row.
    """
    if n < 1:
        raise ValueError("window length must be at least 1")
    if conv.form == "kernel":
        return _window(conv, n, cut=True)
    margin = conv.memory if margin is None else margin
    cap = max(8 * conv.memory, margin + 4 * conv.memory)
    return _stabilize(
        lambda M: _restrict(window_internal(local_window(conv, M), 0, n), n),
        n,
        range(margin, cap + 1, conv.memory),
    )


def local_window(conv: ConvolutionalCode, n: int) -> BlockCode:
    """The tap-local window system: fully contained structure only.

    Image form: span of the shifts entirely inside [0, n).  Kernel form:
    solutions of the checks entirely inside [0, n).  This is the
    shift-invariant interior the strong-controllability search analyzes.
    """
    if n < 1:
        raise ValueError("window length must be at least 1")
    return _window(conv, n, cut=False)


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
    """Compare each window of the code against its finite-support part.

    Image codes are spanned by finite-support words and hold by
    construction, with no window built.  For kernel codes the finite-support
    part is the stabilized projection of the zero-extension windows; the
    first window where it falls short of the code window is the witness.
    """
    N = conv.analysis_horizon
    if conv.form == "image":
        return WeakControllabilityVerdict(holds=True, horizon=N)
    for n in range(1, N + 1):
        full = window_code(conv, n)
        inner = _finite_support_projection(conv, n)
        if full != inner:
            return WeakControllabilityVerdict(
                holds=False,
                horizon=N,
                witness=n,
                window_order=full.cardinality,
                finite_support_order=inner.cardinality,
            )
    return WeakControllabilityVerdict(holds=True, horizon=N)


def _finite_support_projection(conv: ConvolutionalCode, n: int) -> BlockCode:
    """Stabilized projection to [0, n) of a kernel code's finite support."""
    margins = range(0, 8 * conv.memory + 1, conv.memory)
    return _stabilize(lambda K: _restrict(zero_extension_window(conv, K), n), n, margins)


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
    """Effective search for the controller memory on stabilized windows.

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
    lengths = range(min(max(2 * conv.memory, 2), N), N + 1)
    try:
        index = _stabilize(lambda n: control_profile(local_window(conv, n)).index, 0, lengths)
    except MarginError:
        return StrongControllabilityVerdict(status="unknown-beyond-horizon", index=None, horizon=N)
    return StrongControllabilityVerdict(status="stabilized", index=index, horizon=N)


def dual_convolutional(conv: ConvolutionalCode) -> ConvolutionalCode:
    """The dual code: image and kernel forms swap, taps unchanged.

    Under the pairing convention used here (checks read
    sum_t pairing(w_{k+t}, h_t) with increasing time), the annihilator of
    the shift span of taps T is exactly the kernel code with checks T, so
    the swap needs no time reversal; dual window identities are verified by
    ``verify_window_duality``.
    """
    return ConvolutionalCode(
        symbol=conv.symbol,
        form="kernel" if conv.form == "image" else "image",
        taps=conv.taps,
        horizon=conv.horizon,
    )


def verify_window_duality(
    conv: ConvolutionalCode, n: int, margin: Optional[int] = None
) -> bool:
    """Exact per-window duality: the annihilator of the window of the code
    equals the zero-extension window of the dual code."""
    dual = dual_convolutional(conv)
    lhs = dual_block_code(window_code(conv, n, margin))
    rhs = zero_extension_window(dual, n, margin)
    return lhs == rhs


def weak_observability(conv: ConvolutionalCode) -> WeakControllabilityVerdict:
    """Whether the finite-support part equals that of the product closure,
    computed through window duals.

    The closure is taken in the full product: its internally supported
    window is the annihilator of the finite-support projection of the dual
    code, while the code's own finite-support window is the annihilator of
    the dual's full window.  Kernel codes pass at once: both sides are the
    annihilator of the same cut shift rows.  For image codes the comparison
    detects finite-support limits that are not finite shift combinations.
    """
    N = conv.analysis_horizon
    if conv.form == "kernel":
        return WeakControllabilityVerdict(holds=True, horizon=N)
    dual = dual_convolutional(conv)
    for n in range(1, N + 1):
        finite_part = zero_extension_window(conv, n)
        closure_part = dual_block_code(_finite_support_projection(dual, n))
        if finite_part != closure_part:
            return WeakControllabilityVerdict(
                holds=False,
                horizon=N,
                witness=n,
                window_order=closure_part.cardinality,
                finite_support_order=finite_part.cardinality,
            )
    return WeakControllabilityVerdict(holds=True, horizon=N)
