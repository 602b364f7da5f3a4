"""Tests for time-invariant window systems and their verdicts."""

import itertools
import random
from fractions import Fraction

import pytest

from groupcodes.codes import window_projection
from groupcodes.control import reachable_set
from groupcodes.convolutional import (
    ConvolutionalCode,
    MarginError,
    dual_convolutional,
    local_window,
    strong_controllability_index,
    verify_window_duality,
    weak_controllability,
    weak_observability,
    window_code,
    zero_extension_window,
)
from groupcodes.groups import FiniteAbelianGroup

Z2 = FiniteAbelianGroup((2,))
Z4 = FiniteAbelianGroup((4,))
V4 = FiniteAbelianGroup((2, 2))


def image(symbol, *taps, horizon=None):
    return ConvolutionalCode(symbol, "image", tuple(taps), horizon)


def kernel(symbol, *taps, horizon=None):
    return ConvolutionalCode(symbol, "kernel", tuple(taps), horizon)


ACCUMULATOR = image(Z2, ((1,), (1,)))  # single binary tap (1, 1)
CONSTANT = kernel(Z2, ((1,), (1,)))  # single binary check (1, 1)


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

    def test_margin_must_cover_memory(self):
        with pytest.raises(ValueError):
            window_code(CONSTANT, 3, margin=0)


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
        assert calls == {"window_code": 0, "zero_extension_window": 0}


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
        assert calls == {"window_code": 0, "zero_extension_window": 0}


def _count_window_calls(monkeypatch):
    """Wrap the window builders the weak verdicts call; return the counts."""
    import groupcodes.convolutional as module

    calls = {}
    for name in ("window_code", "zero_extension_window"):
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


class TestMarginRecovery:
    # The Z/4 check (1, 0, 2) forces every symbol to zero, but its window
    # only settles once the margin leaves room for two chained checks.
    CONV = kernel(Z4, ((1,), (0,), (2,)))

    def test_default_margin_raises(self):
        with pytest.raises(MarginError) as info:
            window_code(self.CONV, 3)
        assert info.value.margin == 3

    def test_larger_margin_returns_window(self):
        for n in range(1, 5):
            assert window_code(self.CONV, n, margin=6).cardinality == 1
