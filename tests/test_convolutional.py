"""Tests for time-invariant window systems and their verdicts."""

import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcodes.codes import (
    BlockCode,
    SequenceSpace,
    _gap_lengths,
    _PrefixTable,
    window_internal,
    window_projection,
)
from groupcodes.control import control_profile, reachable_set
from groupcodes.convolutional import (
    REPORT_WINDOWS,
    ConvolutionalCode,
    WeakControllabilityVerdict,
    _read,
    _settled,
    _window,
    dual_convolutional,
    local_window,
    strong_controllability_index,
    verify_window_duality,
    weak_controllability,
    weak_observability,
    window_code,
    zero_extension_window,
)
from groupcodes.duality import dual_block_code, is_annihilator
from groupcodes.groups import FiniteAbelianGroup
from groupcodes.linalg import ResidueMatrix, _entry, howell_form, residue_matrix
from groupcodes.specfmt import parse_spec

from .kernel_references import ReferenceWindows, direct_window, reversed_howell_code

Z2 = FiniteAbelianGroup((2,))
Z4 = FiniteAbelianGroup((4,))
V4 = FiniteAbelianGroup((2, 2))


def image(symbol, *taps, horizon=None):
    return ConvolutionalCode(symbol, "image", tuple(taps), horizon)


def kernel(symbol, *taps, horizon=None):
    return ConvolutionalCode(symbol, "kernel", tuple(taps), horizon)


ACCUMULATOR = image(Z2, ((1,), (1,)))  # single binary tap (1, 1)
CONSTANT = kernel(Z2, ((1,), (1,)))  # single binary check (1, 1)


def finite_support_window(conv, n):
    """The finite-support window [0, n) the weak verdicts read, as a code."""
    rows, _ = _read(conv, "finite support", n)
    return BlockCode.from_howell(SequenceSpace((conv.symbol,) * n), rows)


class TestWindowCode:
    def test_image_tap_fills_window(self):
        code = window_code(ACCUMULATOR, 3)
        assert code.cardinality == 8  # boundary cut contributes (0, 0, 1)

    def test_kernel_check_gives_constants(self):
        code = window_code(CONSTANT, 3)
        assert sorted(code.words()) == [(0, 0, 0), (1, 1, 1)]

    def test_image_without_taps_is_zero(self):
        code = window_code(image(Z2), 3)
        assert code.cardinality == 1

    def test_kernel_without_checks_is_ambient(self):
        code = window_code(kernel(Z2), 3)
        assert code.cardinality == 8

    def test_window_consistency(self):
        for conv in (
            ACCUMULATOR,
            CONSTANT,
            image(Z4, ((2,),)),
            kernel(Z4, ((1,), (2,))),
            image(V4, ((1, 0), (0, 1))),
        ):
            for n in range(1, 6):
                larger = window_code(conv, n + 1)
                assert window_projection(larger, 0, n) == window_code(conv, n)

    def test_window_length_must_be_positive(self):
        for conv in (CONSTANT, ACCUMULATOR):
            with pytest.raises(ValueError):
                window_code(conv, 0)
            with pytest.raises(ValueError):
                zero_extension_window(conv, 0)

    def test_windows_beyond_the_horizon_are_built_fresh(self):
        conv = kernel(Z4, ((1,), (0,), (2,)), horizon=2)
        assert [window_code(conv, n).cardinality for n in (1, 2, 5, 9)] == [1] * 4
        conv = image(Z2, ((1,), (1,)), horizon=2)
        for n in (1, 2, 5):
            expected = window_projection(
                window_internal(local_window(conv, n + 10), 0, n), 0, n
            )
            assert zero_extension_window(conv, n) == expected

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one_is_rejected(self, horizon):
        # As the spec format rejects it: no window ends at a horizon below 1.
        for build in (image, kernel):
            with pytest.raises(ValueError, match="horizon must be positive"):
                build(Z4, ((1,), (2,)), horizon=horizon)


class TestZeroExtensionWindow:
    def test_kernel_constant_has_no_finite_words(self):
        inner = zero_extension_window(CONSTANT, 4)
        assert inner.cardinality == 1

    def test_image_inner_is_fully_contained_span(self):
        inner = zero_extension_window(ACCUMULATOR, 3)
        assert sorted(inner.words()) == [
            (0, 0, 0),
            (0, 1, 1),
            (1, 0, 1),
            (1, 1, 0),
        ]

    def test_kernel_burst_code_projects_fully(self):
        # Checks (2, 1) over Z/4 force w_{k+1} = 2 w_k, so every solution is
        # a finitely supported burst (a, 2a, 0, ...).
        burst = kernel(Z4, ((2,), (1,)))
        assert window_code(burst, 1).cardinality == 4
        inner = zero_extension_window(burst, 1)
        assert inner.cardinality == 2  # only (0,) and (2,) extend by zero


class TestWeakControllability:
    def test_image_codes_hold(self):
        assert weak_controllability(ACCUMULATOR).holds

    def test_constant_code_fails_at_one(self):
        verdict = weak_controllability(CONSTANT)
        assert not verdict.holds
        assert verdict.witness == 1
        assert verdict.window_order == 2
        assert verdict.finite_support_order == 1

    def test_ambient_holds(self):
        assert weak_controllability(kernel(Z2)).holds

    def test_burst_kernel_code_holds(self):
        assert weak_controllability(kernel(Z4, ((2,), (1,)))).holds

    def test_image_codes_build_no_window(self, monkeypatch):
        calls = _count_window_calls(monkeypatch)
        for conv in (ACCUMULATOR, image(Z4, ((1,), (2,))), image(V4, ((1, 0), (0, 1)))):
            verdict = weak_controllability(conv)
            assert verdict.holds and verdict.horizon == conv.analysis_horizon
        assert calls and not any(calls.values())


class TestStrongControllability:
    def test_accumulator_index_one(self):
        verdict = strong_controllability_index(
            ConvolutionalCode(Z2, "image", (((1,), (1,)),), horizon=12)
        )
        assert verdict.status == "stabilized"
        assert verdict.index == 1

    def test_constant_not_controllable(self):
        verdict = strong_controllability_index(CONSTANT)
        assert verdict.status == "not-controllable"
        assert verdict.index is None

    def test_zero_code_index_zero(self):
        verdict = strong_controllability_index(image(Z2))
        assert verdict.status == "stabilized"
        assert verdict.index == 0

    def test_scaled_symbol_index_zero(self):
        verdict = strong_controllability_index(image(Z4, ((2,),)))
        assert verdict.status == "stabilized"
        assert verdict.index == 0


class TestTimeInvariance:
    def test_interior_reachable_sets_agree(self):
        # At interior positions the reachable sets of the tap-local system
        # have position-independent size and fullness verdict.
        for conv in (ACCUMULATOR, image(Z4, ((1,), (2,))), kernel(Z4, ((2,), (1,)))):
            n = 8
            local = local_window(conv, n)
            mem = conv.memory
            for L in range(2):
                sizes = []
                verdicts = []
                for k in range(mem, n - mem - L):
                    reach = reachable_set(local, k, L)
                    sizes.append(reach.cardinality)
                    verdicts.append(reach == local)
                assert len(set(sizes)) == 1
                assert len(set(verdicts)) == 1


class TestDuality:
    def test_accumulator_dualizes_to_constant(self):
        dual = dual_convolutional(ACCUMULATOR)
        assert dual.form == "kernel"
        assert dual.taps == ACCUMULATOR.taps
        for n in range(1, 5):
            assert verify_window_duality(ACCUMULATOR, n)
            assert verify_window_duality(dual, n)

    def test_ambient_and_zero_are_dual(self):
        ambient = kernel(Z2)
        for n in range(1, 4):
            assert verify_window_duality(ambient, n)
            assert window_code(dual_convolutional(ambient), n).cardinality == 1

    def test_z4_scaling_tap(self):
        conv = image(Z4, ((2,),))
        dual = dual_convolutional(conv)
        assert dual.form == "kernel"
        for n in range(1, 5):
            assert verify_window_duality(conv, n)
            assert verify_window_duality(dual, n)

    def test_annihilator_test_pairs_as_well_as_counts(self):
        # <(1,0)> and <(0,1)> in Z/2 x Z/2 are each other's annihilators;
        # <(1,0)> has the complementary order to itself but pairs to 1/2.
        first = window_code(image(V4, ((1, 0),)), 1)
        second = window_code(image(V4, ((0, 1),)), 1)

        def annihilates(x, y):
            return is_annihilator(
                x.basis.rows, x.cardinality, y.basis.rows, y.cardinality, x.basis.moduli
            )

        assert annihilates(first, second) and annihilates(second, first)
        assert not annihilates(first, first)

    def test_involution(self):
        assert dual_convolutional(dual_convolutional(ACCUMULATOR)) == ACCUMULATOR

    def test_nonpalindromic_tap_duality(self):
        conv = image(Z4, ((1,), (2,)))
        for n in range(1, 5):
            assert verify_window_duality(conv, n)

    def test_weak_duality_verdicts_match(self):
        for conv in (
            ACCUMULATOR,
            CONSTANT,
            image(Z4, ((1,), (2,))),
            kernel(Z4, ((2,), (1,))),
            kernel(V4, ((1, 0), (0, 1))),
        ):
            ctrl = weak_controllability(conv)
            obs = weak_observability(dual_convolutional(conv))
            assert ctrl.holds == obs.holds
            if not ctrl.holds:
                assert ctrl.witness == obs.witness


    def test_kernel_codes_observe_without_windows(self, monkeypatch):
        codes = (CONSTANT, kernel(Z4, ((2,), (1,))), kernel(V4, ((1, 0), (0, 1))))
        # The short-circuit rests on the per-window duality of the image dual:
        # both sides of the comparison are the annihilator of the same rows.
        for conv in codes:
            for n in range(1, conv.analysis_horizon + 1):
                assert verify_window_duality(dual_convolutional(conv), n)
        calls = _count_window_calls(monkeypatch)
        for conv in codes:
            verdict = weak_observability(conv)
            assert verdict.holds and verdict.horizon == conv.analysis_horizon
        assert calls and not any(calls.values())


def _count_window_calls(monkeypatch):
    """Wrap the window readers the weak verdicts call; return the counts."""
    import groupcodes.convolutional as module

    calls = {}
    for name in ("_read", "_order", "_window"):
        original = getattr(module, name)
        calls[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestEquivalenceChain:
    def test_weak_and_strong_agree_on_mini_corpus(self):
        rng = random.Random(127)
        symbols = [Z2, Z4, V4]
        corpus = []
        for symbol in symbols:
            coords = list(
                itertools.product(*[range(m) for m in symbol.moduli])
            )
            for steps in itertools.product(coords, repeat=2):
                if any(any(s) for s in steps):
                    corpus.append(("image", symbol, steps))
                    corpus.append(("kernel", symbol, steps))
        rng.shuffle(corpus)
        for form, symbol, steps in corpus[:40]:
            conv = ConvolutionalCode(symbol, form, (steps,))
            weak = weak_controllability(conv)
            strong = strong_controllability_index(conv)
            assert strong.status != "unknown-beyond-horizon", conv
            assert weak.holds == strong.is_finite, conv


def _checks_hold(conv, word, cut):
    """Brute force: every check overlapping the word (``cut``) or lying
    inside it pairs to zero with the word, read with zeros beyond its end,
    summed as exact fractions."""
    moduli = conv.symbol.moduli
    n = len(word)
    for tap in conv.taps:
        for k in range(n if cut else n - len(tap) + 1):
            total = Fraction(0)
            for t, step in enumerate(tap):
                if k + t < n:
                    for a, b, m in zip(word[k + t], step, moduli):
                        total += Fraction(a * b, m)
            if total.denominator != 1:
                return False
    return True


def _brute_window(conv, n, cut):
    symbols = list(itertools.product(*[range(m) for m in conv.symbol.moduli]))
    return {
        tuple(e for step in word for e in step)
        for word in itertools.product(symbols, repeat=n)
        if _checks_hold(conv, word, cut)
    }


def _two_step_kernel_codes():
    for symbol in (Z2, Z4, V4):
        steps = list(itertools.product(*[range(m) for m in symbol.moduli]))
        for tap in itertools.product(steps, repeat=2):
            if any(map(any, tap)):
                yield kernel(symbol, tap)


KERNEL_CASES = [(conv, n) for conv in _two_step_kernel_codes() for n in (1, 2, 3)]


class TestKernelWindowsBruteForce:
    """Kernel windows against an enumeration that pairs words with every
    shifted check directly, independent of the annihilator computation."""

    @pytest.mark.parametrize(
        "conv,n",
        KERNEL_CASES,
        ids=[f"{c.symbol.moduli}-{c.taps}-n{n}" for c, n in KERNEL_CASES],
    )
    def test_windows_match_enumeration(self, conv, n):
        zero_extension = set(zero_extension_window(conv, n).words())
        assert zero_extension == _brute_window(conv, n, cut=True)
        assert set(local_window(conv, n).words()) == _brute_window(conv, n, cut=False)




class TestSettledWindows:
    # The Z/4 checks (a, b, 2) with a a unit and b even force every symbol
    # to zero: all symbols are even, and then a * w_k = 0.  The old "agree
    # twice" margin loop gave up on them.
    CODES = [kernel(Z4, ((a,), (b,), (2,))) for a in (1, 3) for b in (0, 2)]

    def test_every_window_is_zero(self):
        for conv in self.CODES:
            for n in range(1, 7):
                assert window_code(conv, n).cardinality == 1
                assert finite_support_window(conv, n).cardinality == 1
            assert weak_controllability(conv).holds

    def test_one_builder_call_per_settle_step_and_read_kind(self, monkeypatch):
        built = _record_builds(monkeypatch)
        # The second code has s = 4 above its horizon 2.
        for conv in (
            kernel(Z4, ((1,), (0,), (2,))),
            kernel(Z2, ((1,), (0,), (0,), (0,), (1,)), horizon=2),
        ):
            built.clear()
            window_code(conv, 1)
            step, states = conv._chains["local"]
            s, N = max(conv.memory - 1, 1), conv.analysis_horizon
            # The chain runs in image form, on the dual: its start on
            # [0, s), then one (s + 1)-symbol window per step, each ending
            # in the state before it; then the one window of the read kind,
            # sized to the reads (the report windows and the weak
            # verdicts' n <= s) and ending in the settled state.
            reads = max(s, min(N, REPORT_WINDOWS))
            assert [(form, n, reverse) for form, n, _, reverse in built] == (
                [("image", s, True)] + [("image", s + 1, True)] * (step + 1)
                + [("kernel", reads, False)]
            )
            terminals = [terminal for _, _, terminal, _ in built]
            assert terminals[0] == () and terminals[-2:] == [states, states]
            assert len(set(terminals[1:-1])) == step + 1  # a new state per step
            built.clear()
            for n in range(2, reads + 1):
                window_code(conv, n)
            assert built == []
            window_code(conv, reads + 1)  # a longer read builds the window again
            assert built == [("kernel", reads + 1, states, False)]


def _record_builds(monkeypatch):
    """Wrap the window builder; return its calls as (form, length,
    terminal rows, reversed)."""
    import groupcodes.convolutional as module

    built, original = [], module._window

    def counted(conv, n, terminal, reverse=False):
        built.append((conv.form, n, terminal, reverse))
        return original(conv, n, terminal, reverse)

    monkeypatch.setattr(module, "_window", counted)
    return built


def _omega(n):
    count, p = 0, 2
    while n > 1:
        while n % p == 0:
            n, count = n // p, count + 1
        p += 1
    return count


SETTLE_SYMBOLS = (Z2, Z4, V4, FiniteAbelianGroup((8,)), FiniteAbelianGroup((6,)))


class TestSettleStep:
    @given(st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_first_repeat_is_a_fixed_point_within_the_bound(self, data):
        symbol = data.draw(st.sampled_from(SETTLE_SYMBOLS))
        form = data.draw(st.sampled_from(("image", "kernel")))
        step_strategy = st.tuples(*[st.integers(0, m - 1) for m in symbol.moduli])
        taps = data.draw(
            st.lists(
                st.lists(step_strategy, min_size=1, max_size=4).map(tuple),
                min_size=1,
                max_size=2,
            )
        )
        conv = ConvolutionalCode(symbol, form, tuple(taps), horizon=1)
        s = max(conv.memory - 1, 1)
        space_s = SequenceSpace((symbol,) * s)
        image_form = ConvolutionalCode(symbol, "image", conv.taps, horizon=1)
        for chain, cut in (("local", False), ("cut", True)):
            step, states = _settled(conv, chain)
            assert step <= s * _omega(symbol.cardinality)
            settled = BlockCode(space_s, ResidueMatrix(space_s.flat_moduli, states))

            def full(j):
                # Y_j off the full image window [0, s + j): the [0, s)
                # parts of its words that vanish on [s, s + j).
                window = direct_window(image_form, s + j, cut)
                return window_projection(window_internal(window, 0, s), 0, s)

            for j in range(step, step + 4):
                assert full(j) == settled
            if step:
                assert full(step - 1) != settled


def _symbols(conv):
    return list(itertools.product(*[range(m) for m in conv.symbol.moduli]))


def _add(x, y, moduli):
    return tuple((a + b) % m for a, b, m in zip(x, y, moduli))


def _pairs_to_zero(word, tap, moduli):
    total = Fraction(0)
    for symbol, step in zip(word, tap):
        for a, b, m in zip(symbol, step, moduli):
            total += Fraction(a * b, m)
    return total.denominator == 1


def _closure(start, keep):
    """Iterate ``keep`` from ``start`` until it no longer changes."""
    current = set(start)
    while (following := keep(current)) != current:
        current = following
    return current


def _kernel_state_graph(conv, s):
    """States are words on s symbols; x -> (x_1, ..., x_{s-1}, a) when
    (x, a) satisfies every check at shift 0."""
    moduli = conv.symbol.moduli
    states = list(itertools.product(_symbols(conv), repeat=s))
    return {
        x: [
            x[1:] + (a,)
            for a in _symbols(conv)
            if all(_pairs_to_zero(x + (a,), tap, moduli) for tap in conv.taps)
        ]
        for x in states
    }


def _kernel_words(graph, alive, s, n):
    """Flat words on [0, n) whose states form a path inside ``alive``."""
    if n <= s:
        words = {x[:n] for x in alive}
    else:
        words = set(alive)
        for _ in range(n - s):
            words = {w + (y[-1],) for w in words for y in graph[w[-s:]] if y in alive}
    return {tuple(e for symbol in w for e in symbol) for w in words}


def _image_state_graph(conv, s):
    """States are the pending contributions on the next s symbols; a shift
    combination v of the taps (v in G^(s+1)) started now outputs x_0 + v_0
    and leaves (x_1, ..., x_{s-1}, 0) + (v_1, ..., v_s) pending."""
    moduli = conv.symbol.moduli
    zero = tuple(0 for _ in moduli)
    padded = [tuple(tap) + (zero,) * (s + 1 - len(tap)) for tap in conv.taps]

    def add_words(v, w):
        return tuple(_add(a, b, moduli) for a, b in zip(v, w))

    span = _closure(
        {(zero,) * (s + 1)},
        lambda current: current | {add_words(v, g) for v in current for g in padded},
    )
    states = list(itertools.product(_symbols(conv), repeat=s))
    return {
        x: [
            (_add(x[0], v[0], moduli), add_words(x[1:] + (zero,), v[1:]))
            for v in span
        ]
        for x in states
    }


def _image_words(graph, start, ends, n):
    """Flat outputs on [0, n) of the paths from ``start`` ending in ``ends``."""
    paths = {(start, ())}
    for _ in range(n):
        paths = {(y, w + (u,)) for x, w in paths for u, y in graph[x]}
    return {tuple(e for u in w for e in u) for y, w in paths if y in ends}


def _state_graph_windows(conv, horizon):
    """Window, finite-support projection and zero-extension window on
    [0, n) for n = 1..horizon, read off the state graph on G^s."""
    s = max(conv.memory - 1, 1)
    zero_state = tuple(tuple(0 for _ in conv.symbol.moduli) for _ in range(s))
    out = {}
    if conv.form == "kernel":
        graph = _kernel_state_graph(conv, s)
        infinite = _closure(
            graph, lambda alive: {x for x in alive if any(y in alive for y in graph[x])}
        )
        reach_zero = _closure(
            {zero_state},
            lambda reach: reach | {x for x in graph if any(y in reach for y in graph[x])},
        )
        for n in range(1, horizon + 1):
            out[n] = (
                _kernel_words(graph, infinite, s, n),
                _kernel_words(graph, reach_zero, s, n),
                None,
            )
        return out
    graph = _image_state_graph(conv, s)
    zero_output = tuple(0 for _ in conv.symbol.moduli)
    reach_zero = _closure(
        {zero_state},
        lambda reach: reach
        | {x for x in graph if any(u == zero_output and y in reach for u, y in graph[x])},
    )
    for n in range(1, horizon + 1):
        everything = _image_words(graph, zero_state, graph.keys(), n)
        out[n] = (everything, everything, _image_words(graph, zero_state, reach_zero, n))
    return out


def _three_step_codes():
    # Horizon 4: the windows n = 1..4 are read up to the edge of the one
    # window each read kind keeps.
    for symbol in (Z2, Z4):
        steps = list(itertools.product(*[range(m) for m in symbol.moduli]))
        for tap in itertools.product(steps, repeat=3):
            if any(map(any, tap)):
                yield image(symbol, tap, horizon=4)
                yield kernel(symbol, tap, horizon=4)


THREE_STEP_CODES = list(_three_step_codes())


class TestStateGraphTwin:
    """The settled windows against a state graph on G^s built without any
    linear algebra: prune the states with no infinite forward path (the
    code) or that cannot reach zero (its finite support), and read the
    words of the paths."""

    @pytest.mark.parametrize(
        "conv",
        THREE_STEP_CODES,
        ids=[f"{c.form}-{c.symbol.moduli}-{c.taps}" for c in THREE_STEP_CODES],
    )
    def test_windows_match_state_graph(self, conv):
        for n, (full, finite, zero_extension) in _state_graph_windows(conv, 4).items():
            assert set(window_code(conv, n).words()) == full
            assert set(finite_support_window(conv, n).words()) == finite
            if zero_extension is not None:
                assert set(zero_extension_window(conv, n).words()) == zero_extension


def _reference_weak_verdicts(conv):
    """The weak verdicts as computed before they stopped at window s: every
    window n <= N, compared as subgroups through ``dual_block_code``."""
    N = conv.analysis_horizon
    holds = WeakControllabilityVerdict(holds=True, horizon=N)
    dual = dual_convolutional(conv)
    for n in range(1, N + 1):
        if conv.form == "kernel":
            full = window_code(conv, n)
            inner = finite_support_window(conv, n)
        else:
            full = dual_block_code(finite_support_window(dual, n))
            inner = zero_extension_window(conv, n)
        if full != inner:
            failed = WeakControllabilityVerdict(
                False, N, n, full.cardinality, inner.cardinality
            )
            return (failed, holds) if conv.form == "kernel" else (holds, failed)
    return holds, holds


TWIN_SYMBOLS = (
    Z2,
    Z4,
    FiniteAbelianGroup((8,)),
    V4,
    FiniteAbelianGroup((2, 4)),
    FiniteAbelianGroup((6,)),
    FiniteAbelianGroup((9,)),
)


@st.composite
def _random_codes(draw, symbols=TWIN_SYMBOLS):
    """Codes of memory 1-4 with 1-2 taps, leading zero steps included."""
    symbol = draw(st.sampled_from(symbols))
    step = st.tuples(*[st.integers(0, m - 1) for m in symbol.moduli])
    zero = tuple(0 for _ in symbol.moduli)
    taps = []
    for _ in range(draw(st.integers(1, 2))):
        length = draw(st.integers(1, 4))
        lead = draw(st.integers(0, length - 1))
        taps.append((zero,) * lead + tuple(draw(step) for _ in range(length - lead)))
    form = draw(st.sampled_from(("image", "kernel")))
    horizon = draw(st.sampled_from((None, None, None, 1, 2)))
    return ConvolutionalCode(symbol, form, tuple(taps), horizon)


class TestWeakVerdictTwin:
    """The weak verdicts, which stop at window s and count, against the
    full-horizon loop through ``dual_block_code``."""

    @given(_random_codes())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_verdicts_match_the_full_horizon_loop(self, conv):
        ctrl, obs = _reference_weak_verdicts(conv)
        assert weak_controllability(conv) == ctrl
        assert weak_observability(conv) == obs
        dual = dual_convolutional(conv)
        for n in range(1, min(conv.analysis_horizon, REPORT_WINDOWS) + 1):
            annihilator = dual_block_code(window_code(conv, n))
            assert verify_window_duality(conv, n) == (annihilator == zero_extension_window(dual, n))

    def test_no_window_past_s_and_no_dual(self, monkeypatch):
        import groupcodes.convolutional as module
        import groupcodes.duality as duality

        reads, duals = [], []
        for name in ("_read",):
            original = getattr(module, name)

            def counted(conv, *args, _original=original):
                reads.append((args[-1], max(conv.memory - 1, 1)))
                return _original(conv, *args)

            monkeypatch.setattr(module, name, counted)
        for owner in (module, duality):
            if hasattr(owner, "dual_block_code"):
                original = owner.dual_block_code
                monkeypatch.setattr(
                    owner,
                    "dual_block_code",
                    lambda code, _original=original: duals.append(code) or _original(code),
                )
        codes = [
            CONSTANT,
            kernel(Z4, ((2,), (1,))),
            kernel(Z4, ((1,), (0,), (2,))),
            kernel(V4, ((1, 0), (0, 1))),
            kernel(FiniteAbelianGroup((8,)), ((2,), (0,), (1,))),
        ]
        verdicts = []
        for conv in codes + [dual_convolutional(c) for c in codes]:
            verdicts += [weak_controllability(conv), weak_observability(conv)]
        assert any(not v.holds for v in verdicts) and any(v.holds for v in verdicts)
        assert reads and all(n <= s for n, s in reads)
        assert duals == []


def _fresh(conv):
    """An equal code with none of the windows ``conv`` keeps."""
    return ConvolutionalCode(conv.symbol, conv.form, conv.taps, conv.horizon)


class TestCutWindowReads:
    """Every cut read, taken off the one window its read kind keeps,
    against a direct build, in read orders that make the window grow."""

    LONGEST = 9

    @given(_random_codes(), st.sampled_from(("short-first", "long-first", "interleaved")))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_reads_match_direct_builds(self, conv, order):
        lengths = list(range(1, self.LONGEST + 1))
        if order == "long-first":
            lengths.reverse()
        elif order == "interleaved":
            lengths = [3, 1, 7, 2, 9, 4, 6, 5, 8]
        # The finite-support chain as built before cut windows were kept:
        # every settle step and long window a direct cut window.
        reference = ReferenceWindows(_fresh(conv))
        for n in lengths:
            direct = direct_window(conv, n, cut=True)
            if conv.form == "image":
                assert window_code(conv, n) == direct
            else:
                assert zero_extension_window(conv, n) == direct
            finite = _read(conv, "finite support", n)
            assert finite == reference.settled_window("direct finite support", n)

    def test_every_read_kind_builds_one_window(self, monkeypatch):
        built = _record_builds(monkeypatch)
        codes = [
            image(Z4, ((1,), (2,))),
            kernel(Z4, ((1,), (0,), (2,))),
            kernel(V4, ((0, 0), (1, 0), (0, 1))),  # settles at j* = 1
            kernel(FiniteAbelianGroup((8,)), ((2,), (0,), (1,))),  # j* = 4
            kernel(Z2, ((1,), (0,), (0,), (0,), (1,)), horizon=2),
        ]
        kinds = ("code", "zero extension", "finite support")
        for conv in codes:
            s, N = conv.state_length, conv.analysis_horizon
            reads = max(s, min(N, REPORT_WINDOWS))
            built.clear()
            for n in range(1, reads + 1):
                for kind in kinds:
                    _read(conv, kind, n)
            # No window is built twice: each settle step ends in a new
            # state, and the read kinds build one window each at ``reads``,
            # shared by kinds that end in the same terminal rows (an image
            # code's finite-support reads are its code reads; a weakly
            # controllable kernel code settles both chains at one state).
            assert len(set(built)) == len(built)
            windows = [(n, rev) for form, n, _, rev in built if (form, n) == (conv.form, reads)]
            steps = [n for form, n, _, _ in built if (form, n) != (conv.form, reads)]
            settled = {rows for _, rows in conv._chains.values()}
            forward = 1 if conv.form == "image" else len(settled)
            assert sorted(windows) == [(reads, False)] * forward + [(reads, True)]
            assert set(steps) <= {s, s + 1}
            # A chain builds its start and one step per state up to Y*, and
            # no step at a state the other chain settled at.
            chains = conv._chains.values()
            assert sum(j + 1 for j, _ in chains) <= len(steps) <= sum(j + 2 for j, _ in chains)
            read = window_code if conv.form == "image" else zero_extension_window
            built.clear()
            read(conv, reads + 2)  # a longer read builds its window once more
            for n in range(1, reads + 3):
                read(conv, n)
            assert [(n, reverse) for _, n, _, reverse in built] == [
                (reads + 2, conv.form == "kernel")
            ]

    @pytest.mark.parametrize(
        "spec", ["two_tap_kernel.spec", "z2x2_kernel.spec", "z4_12_kernel.spec"]
    )
    def test_kernel_analyze_makes_no_whole_horizon_copy(self, spec, monkeypatch):
        # ``analyze`` reads every window order off the pivot products of a
        # kept window (``_order``): it cuts no row, by a projection or a
        # one-sided read, so it copies none onto a window's whole horizon
        # either (it cut every window it read, handing back the kept
        # window's own rows at the whole horizon).
        import io
        from contextlib import redirect_stdout

        import groupcodes.cli as cli_module
        import groupcodes.convolutional as module
        from groupcodes.cli import main

        from .conftest import BAND_SPECS

        cuts, orders = [], []
        project, vanishing, order = module._projection, _PrefixTable.vanishing, module._order
        monkeypatch.setattr(module, "_projection", lambda *a: cuts.append(a) or project(*a))
        monkeypatch.setattr(_PrefixTable, "vanishing", lambda *a: cuts.append(a) or vanishing(*a))
        for owner in (module, cli_module):
            monkeypatch.setattr(owner, "_order", lambda *a: orders.append(a) or order(*a))
        with redirect_stdout(io.StringIO()):
            assert main(["analyze", str(BAND_SPECS / spec)]) == 0
        assert orders and not cuts


def _residue_matrix_window(conv, n, cut):
    """``_window`` as it was built before its shift rows were trusted: every
    entry re-reduced by ``residue_matrix``."""
    from groupcodes.codes import BlockCode, SequenceSpace
    from groupcodes.linalg import annihilator_rows, residue_matrix

    space, width = SequenceSpace((conv.symbol,) * n), len(conv.symbol.moduli)
    shifts = []
    for tap in conv.taps:
        flat = [e for step in tap for e in step]
        for s in range(n if cut else n - len(tap) + 1):
            shifts.append(([0] * (s * width) + flat + [0] * (n * width))[: n * width])
    rows = residue_matrix(shifts, space.flat_moduli)
    if conv.form == "image":
        return BlockCode(space, rows)
    return BlockCode.from_howell(space, annihilator_rows(rows).rows)


def _one_tap_corpus():
    """Every one-tap code over Z/2, Z/4, Z/2 x Z/2 and Z/8 with 1-3 steps,
    in image and kernel form (trailing zero steps stripped, so each once)."""
    codes = set()
    for symbol in (Z2, Z4, V4, FiniteAbelianGroup((8,))):
        steps = list(itertools.product(*[range(m) for m in symbol.moduli]))
        for length in (1, 2, 3):
            for tap in itertools.product(steps, repeat=length):
                if any(map(any, tap)):
                    codes.add(image(symbol, tap))
                    codes.add(kernel(symbol, tap))
    return sorted(codes, key=repr)


def _cut_terminal(conv, n, cut):
    """The terminal rows that make the builder's window [0, n) the one
    with all shifts cut at n (``cut``) or only those inside it, or None
    when there is no such build (n < s)."""
    if not cut:
        return ()
    return conv._cut_rows if n >= conv.state_length else None


class TestTrustedShiftRows:
    """The shift rows are reduced by ``_normalize_tap`` and padded with
    zeros, so ``_window`` wraps them without a second reduction."""

    def test_window_builds_no_residue_matrix(self, monkeypatch):
        import groupcodes.convolutional as module
        import groupcodes.linalg as linalg_module

        calls = []
        original = linalg_module.residue_matrix

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(linalg_module, "residue_matrix", counted)
        monkeypatch.setattr(module, "residue_matrix", counted, raising=False)
        for conv in (ACCUMULATOR, CONSTANT, kernel(V4, ((1, 0), (0, 1)), ((1, 1),))):
            for n in range(1, 6):
                for cut in (False, True):
                    for reverse in (False, True):
                        _window(conv, n, _cut_terminal(conv, n, cut), reverse)
        assert calls == []

    def test_matches_the_residue_matrix_build(self):
        for conv in _one_tap_corpus():
            for n in range(1, 10):
                for cut in (False, True):
                    terminal = _cut_terminal(conv, n, cut)
                    if terminal is not None:
                        trusted = _window(conv, n, terminal)
                        assert trusted == _residue_matrix_window(conv, n, cut).basis.rows, (
                            conv, n, cut,
                        )


def _parent_style_windows(conv, horizon):
    """The code, zero-extension and finite-support windows [0, n), n <=
    ``horizon``, as the window path computed them before it read rows off
    kept windows: every read builds its window directly and cuts it
    with ``window_projection`` (after ``window_internal`` when it keeps the
    words supported in [0, n)), each chain's settle step found once by the
    same loop on G^s."""
    s = conv.state_length
    local = lambda length: direct_window(conv, length, cut=False)  # noqa: E731
    cut = lambda length: direct_window(conv, length, cut=True)  # noqa: E731

    def read(window, b, past):
        return window_projection(window_internal(window, 0, b) if past else window, 0, b)

    def settled(build, past):
        step, states = 0, read(build(s), s, past)
        while (following := read(build(s + step + 1), s, past)) != states:
            step, states = step + 1, following
        return lambda n: read(build(max(n, s) + step + past * s), n, past)

    cut_read = lambda n: read(cut(n), n, 0)  # noqa: E731
    code = cut_read if conv.form == "image" else settled(local, 0)
    zero_extension = cut_read if conv.form == "kernel" else settled(local, 1)
    finite = settled(cut, 0)
    for n in range(1, horizon + 1):
        z = zero_extension(n)
        yield n, (
            (code(n).basis.rows, code(n).cardinality),
            (_one_sided_rows(z), z.cardinality),
            (finite(n).basis.rows, finite(n).cardinality),
        )


def _one_sided_rows(window):
    """The rows a one-sided read gives for ``window``: its Howell form with
    the columns reversed, re-reversed."""
    moduli = window.basis.moduli[::-1]
    reverse = ResidueMatrix(moduli, tuple(row[::-1] for row in window.basis.rows))
    return tuple(row[::-1] for row in howell_form(reverse).rows)


ONE_TAP_CORPUS = _one_tap_corpus()


class TestReaderTwin:
    """The readers' (rows, order) against the parent-style route, on every
    one-tap code over Z/2, Z/4, Z/2 x Z/2 and Z/8 and every n <= 9, row
    for row: Howell rows for the code and finite-support windows, and for
    the one-sided zero-extension reads the reversed Howell rows of the
    directly built window, re-reversed."""

    LONGEST = 9

    @pytest.mark.parametrize("symbol", [Z2, Z4, V4, FiniteAbelianGroup((8,))], ids=str)
    def test_reads_match_built_windows(self, symbol):
        codes = [conv for conv in ONE_TAP_CORPUS if conv.symbol == symbol]
        assert codes
        for conv in codes:
            for n, (code, zero_extension, finite) in _parent_style_windows(conv, self.LONGEST):
                assert _read(conv, "code", n) == code, (conv, n)
                assert _read(conv, "zero extension", n) == zero_extension, (conv, n)
                assert _read(conv, "finite support", n) == finite, (conv, n)


# Old chain names (``ReferenceWindows``) of the engine's chains by form:
# the local chain settles a kernel code's windows and an image code's zero
# extensions, the cut chain a kernel code's finite support.
_REFERENCE_CHAINS = {
    "image": {"local": "zero extension"},
    "kernel": {"local": "code", "cut": "finite support"},
}


def _assert_engine_matches_reference(conv, longest=9):
    """Every read n <= ``longest`` (rows and order), the settle step of
    each chain and the weak and strong verdicts of the window engine, on
    fresh codes, against the route before it."""
    engine, reference = _fresh(conv), ReferenceWindows(_fresh(conv))
    for n in range(1, longest + 1):
        assert _read(engine, "code", n) == reference.code(n), (conv, n)
        assert _read(engine, "zero extension", n) == reference.zero_extension(n), (conv, n)
        assert _read(engine, "finite support", n) == reference.finite_support(n), (conv, n)
    for chain, name in _REFERENCE_CHAINS[conv.form].items():
        assert _settled(engine, chain)[0] == reference.step(name), (conv, chain)
    fresh = _fresh(conv)
    assert weak_controllability(fresh) == reference.weak_controllability(), conv
    assert weak_observability(fresh) == reference.weak_observability(), conv
    assert strong_controllability_index(fresh) == reference.strong_controllability_index(), conv


def _spec_codes():
    from .conftest import BAND_SPECS

    paths = sorted(BAND_SPECS.glob("*.spec")) + sorted(
        (BAND_SPECS.parents[2] / "demos" / "specs").glob("*.spec")
    )
    docs = (parse_spec(path.read_text(encoding="utf-8")) for path in paths)
    return [doc.to_convolutional() for doc in docs if doc.kind == "convolutional"]


SPEC_CODES = _spec_codes()
ENGINE_SYMBOLS = (FiniteAbelianGroup((8,)), FiniteAbelianGroup((9,)), FiniteAbelianGroup((2, 4)))


class TestEngineTwin:
    """The one window engine (terminal rows settled on (s + 1)-symbol
    windows, one window per read kind) against the route it replaced
    (``kernel_references.ReferenceWindows``: full-window settle steps,
    long windows j* symbols longer, the kept cut window), read for read."""

    @pytest.mark.parametrize("symbol", [Z2, Z4], ids=str)
    def test_three_step_codes(self, symbol):
        codes = [conv for conv in THREE_STEP_CODES if conv.symbol == symbol]
        assert codes
        for conv in codes:
            _assert_engine_matches_reference(conv)

    def test_golden_and_demo_specs(self):
        assert len(SPEC_CODES) == 11
        for conv in SPEC_CODES:
            _assert_engine_matches_reference(conv)

    def test_z8_kernel_settles_its_finite_support_at_four(self):
        conv = kernel(FiniteAbelianGroup((8,)), ((2,), (0,), (1,)))
        assert _settled(_fresh(conv), "cut")[0] == 4
        _assert_engine_matches_reference(conv)

    @given(_random_codes(ENGINE_SYMBOLS))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_random_codes(self, conv):
        _assert_engine_matches_reference(conv)


def _swept_index(conv, n):
    """The strong index's read of window n: the largest gap length on the
    orders of a prefix table of the window's reversed record."""
    rows = _window(conv, n, (), reverse=True, record=True)
    table = _PrefixTable(SequenceSpace((conv.symbol,) * n), rows)
    return max(_gap_lengths(n, table.order))


class TestStrongIndexWindows:
    """The strong-index windows are built in reversed form as unfinished
    records, and their window orders are read off one unfinished forward
    sweep of those rows (``codes._PrefixTable.order``)."""

    def test_reversed_build_is_the_local_window(self):
        # The swept index on every code, the reference route on every
        # other: the record spans the finished build's window, with the
        # same pivot columns and orders.
        for i, conv in enumerate(ONE_TAP_CORPUS):
            for n in range(1, 10):
                local = local_window(conv, n)
                index = control_profile(local).index
                swept = _swept_index(conv, n)
                assert swept == index, (conv, n)
                if i % 2:
                    continue
                space = SequenceSpace((conv.symbol,) * n)
                finished = _window(conv, n, (), reverse=True)
                built = reversed_howell_code(space, finished)
                assert built == local, (conv, n)
                assert control_profile(built).index == index
                record = _window(conv, n, (), reverse=True, record=True)
                moduli = space.flat_moduli
                spanned = residue_matrix([row[::-1] for row in record], moduli)
                assert BlockCode(space, spanned) == local, (conv, n)
                assert _entry(record, moduli[::-1])[1:] == _entry(finished, moduli[::-1])[1:]

    def test_one_owned_record_per_window(self, monkeypatch):
        # One Howell state, one record and one prefix table with no owner
        # per window (one Howell form per window when the windows were
        # finished); no Howell form is requested, no code is built and no
        # Howell state is finished.
        import sys

        import groupcodes.convolutional as module
        import groupcodes.linalg as linalg_module
        windows, forms, built, tables, finished = [], [], [], [], []
        states, records = [], []
        window, canonical, entry = module._window, howell_form, _PrefixTable.entry
        post_init, from_howell = BlockCode.__post_init__, BlockCode.from_howell.__func__
        table_init, filling = _PrefixTable.__init__, []
        new_state, record = linalg_module._howell_state, module._howell_record
        monkeypatch.setattr(
            module, "_window", lambda *a, **k: windows.append(k) or window(*a, **k)
        )
        monkeypatch.setattr(
            linalg_module, "_howell_state", lambda m: states.append(m) or new_state(m)
        )
        monkeypatch.setattr(module, "_howell_record", lambda m: records.append(m) or record(m))
        for name, owner in list(sys.modules.items()):
            if name.startswith("groupcodes") and getattr(owner, "howell_form", None) is canonical:
                monkeypatch.setattr(owner, "howell_form", lambda m: forms.append(m) or canonical(m))

        def filled(table, b):
            filling.append(b)
            try:
                return entry(table, b)
            finally:
                filling.pop()

        for state in (linalg_module._HowellSingle, linalg_module._HowellPacked):
            monkeypatch.setattr(
                state, "finish", lambda s, _f=state.finish: finished.append(filling[:]) or _f(s)
            )
        monkeypatch.setattr(_PrefixTable, "entry", filled)
        monkeypatch.setattr(
            _PrefixTable, "__init__", lambda t, *a: tables.append(a) or table_init(t, *a)
        )
        monkeypatch.setattr(BlockCode, "__post_init__", lambda c: built.append(c) or post_init(c))
        monkeypatch.setattr(
            BlockCode, "from_howell", classmethod(lambda *a: built.append(a) or from_howell(*a))
        )
        for conv in (
            ACCUMULATOR,
            image(Z4, ((1,), (2,))),
            kernel(Z4, ((2,), (1,))),
            kernel(Z4, ((1,), (2,))),
            kernel(V4, ((0, 0), (1, 0), (0, 1))),
        ):
            weak_controllability(conv)  # its windows are kept on the code
            for counted in (windows, forms, built, tables, finished, states, records):
                counted.clear()
            assert strong_controllability_index(conv).is_finite
            assert len(windows) == len(tables) == len(records) == len(states) > 0
            assert all(k == {"reverse": True, "record": True} for k in windows)
            assert all(len(args) == 2 for args in tables)  # no owner record
            assert forms == built == finished == []


class TestReadBuilds:
    """The analyses read windows as rows: no window code per read."""

    # howell_form and annihilator_rows calls of one ``analyze`` and one
    # ``duality-check``, from a cold Howell cache: one per settle step and
    # window built, a kernel-form window an annihilator request that
    # takes no Howell form (13 and 13 Howell forms when each annihilator
    # was the head kernel of its graph's Howell form).  The
    # strong-index windows are unfinished records and take none (15 for
    # the Z/4 kernel when each was a Howell form), the readers add none,
    # and the prefix tables take none per end (47 and 26 with one Howell
    # form per prefix end; 21 and 11 with full-window settle steps, long
    # windows and forward strong-index windows).  The weakly controllable
    # Z/4 kernel settles both chains at one state and reads both kinds off
    # one window; the two-tap kernel, which is not weakly controllable,
    # runs no strong index and builds a finite-support window of its own.
    HOWELL = {"z4_12_kernel.spec": (11, 2), "two_tap_kernel.spec": (9, 4)}

    @pytest.mark.parametrize("spec", sorted(HOWELL))
    def test_reports_build_no_window_code_per_read(self, spec, monkeypatch):
        import io
        import sys
        from contextlib import redirect_stdout

        import groupcodes.convolutional as module
        from groupcodes.cli import main
        from groupcodes.linalg import _howell_cached

        from .conftest import BAND_SPECS

        counts = dict.fromkeys(
            ("window_projection", "howell_form", "annihilator_rows", "reads", "spaces"), 0
        )

        def counting(original, key):
            def counted(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            return counted

        for name, owner in list(sys.modules.items()):
            if name.startswith("groupcodes"):
                for target in ("window_projection", "howell_form", "annihilator_rows"):
                    if hasattr(owner, target):
                        patched = counting(getattr(owner, target), target)
                        monkeypatch.setattr(owner, target, patched)
        import groupcodes.cli as cli_module

        monkeypatch.setattr(module, "_read", counting(module._read, "reads"))
        order = counting(module._order, "reads")
        for owner in (module, cli_module):
            monkeypatch.setattr(owner, "_order", order)
        monkeypatch.setattr(
            SequenceSpace, "__post_init__", counting(SequenceSpace.__post_init__, "spaces")
        )
        _howell_cached.cache_clear()
        for command in ("analyze", "duality-check"):
            with redirect_stdout(io.StringIO()):
                assert main([command, str(BAND_SPECS / spec)]) == 0
        assert counts["window_projection"] == 0
        assert 0 < counts["spaces"] < counts["reads"]
        assert (counts["howell_form"], counts["annihilator_rows"]) == self.HOWELL[spec]


def test_pool_builds_few_codes_and_no_per_end_howell_form(monkeypatch, tmp_path):
    # analyze and duality-check over the seed-7 convolutional benchmark
    # pool, as one pass of the benchmark loop: windows are read as rows off
    # kept windows and prefix tables, so no code is canonicalized (7,992
    # when each prefix end was a code and one-sided reads went through
    # forward windows), and filling a prefix table takes no Howell form and
    # finishes no Howell state.  Every kept window is built at its read
    # length and never regrown (80 of 1,166 cut windows regrew with the
    # kept cut window), and every prefix end filled is read (1,592 of 5,778
    # were not).  The strong index counts its windows'
    # orders on a table of their own with no owner, made outside ``_read``,
    # so at most 432 other tables are made (1,144 with one code and table
    # per strong-index window).
    import sys

    import groupcodes.convolutional as module
    import groupcodes.linalg as linalg_module
    import groupcodes.cli as cli_module
    from groupcodes.linalg import howell_form as canonical

    from . import report_digest

    counts = {
        "codes": 0, "filling": 0, "howell_while_filling": 0, "finish_while_filling": 0,
        "regrown": 0, "reading": 0,
    }
    post_init, entry, table_init = BlockCode.__post_init__, _PrefixTable.entry, _PrefixTable.__init__
    read, tables, swept = module._read, {}, []

    def counted_init(self):
        counts["codes"] += 1
        post_init(self)

    def recorded_table(self, *args):
        if counts["reading"]:
            tables[self] = set()
        else:
            swept.append(self)
        table_init(self, *args)

    def filling(self, b):
        tables.get(self, set()).add(b)
        counts["filling"] += 1
        try:
            return entry(self, b)
        finally:
            counts["filling"] -= 1

    def kept_at_reads(reader):
        def kept(conv, kind, n):
            counts["reading"] += 1
            try:
                value = reader(conv, kind, n)
            finally:
                counts["reading"] -= 1
            windows = conv._windows.values()
            counts["regrown"] += any(w.space.horizon != conv._reads for w in windows)
            return value

        return kept

    def spied_howell(matrix):
        counts["howell_while_filling"] += counts["filling"] > 0
        return canonical(matrix)

    for state in (linalg_module._HowellSingle, linalg_module._HowellPacked):

        def spied_finish(self, _finish=state.finish):
            counts["finish_while_filling"] += counts["filling"] > 0
            return _finish(self)

        monkeypatch.setattr(state, "finish", spied_finish)
    monkeypatch.setattr(BlockCode, "__post_init__", counted_init)
    monkeypatch.setattr(_PrefixTable, "entry", filling)
    monkeypatch.setattr(_PrefixTable, "__init__", recorded_table)
    monkeypatch.setattr(module, "_read", kept_at_reads(read))
    for owner in (module, cli_module):
        monkeypatch.setattr(owner, "_order", kept_at_reads(module._order))
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("groupcodes") and getattr(module, "howell_form", None) is canonical:
            monkeypatch.setattr(module, "howell_form", spied_howell)
    specs = report_digest.pool("convolutional", 7, None)
    for spec in specs:
        path = tmp_path / spec.name
        path.write_text(spec.text, encoding="utf-8")
        for command in ("analyze", "duality-check"):
            assert report_digest.report((command,), str(path)).startswith(b"(0, ")
    assert len(specs) == 432
    assert counts["codes"] == 0
    assert counts["howell_while_filling"] == counts["finish_while_filling"] == 0
    assert counts["regrown"] == 0
    assert len(tables) <= 432 < len(swept)
    assert all(len(table.entries) > 1 for table in swept)
    assert tables and all(set(range(1, len(t.entries))) <= ends for t, ends in tables.items())
