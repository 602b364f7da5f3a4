"""Tests for consistency sets, observability and duality reports."""

import random

import pytest

from groupcodes.codes import SequenceSpace, ambient_code, code_from_generators
from groupcodes.groups import FiniteAbelianGroup
from groupcodes.observe import (
    check_control_observe_duality,
    consistency_set,
    observable_supercode,
    observe_profile,
)


def space(*symbol_moduli):
    return SequenceSpace(tuple(FiniteAbelianGroup(m) for m in symbol_moduli))


def binary_space(n):
    return space(*[(2,)] * n)


@pytest.fixture
def even_weight():
    return code_from_generators(binary_space(3), [(1, 1, 0), (0, 1, 1)])


@pytest.fixture
def repetition():
    return code_from_generators(binary_space(3), [(1, 1, 1)])


def brute_consistency(code, k, L):
    """Enumerate the ambient and test windows against projected codewords."""
    sp = code.space
    b = min(k + L + 1, sp.horizon)
    sl = sp.flat_slice(k, b)
    allowed = {w[sl] for w in code.words()}
    out = set()
    import itertools

    for x in itertools.product(*[range(m) for m in sp.flat_moduli]):
        if x[sl] in allowed:
            out.add(x)
    return out


class TestConsistencySet:
    def test_repetition_prefix_window(self, repetition):
        got = set(consistency_set(repetition, 0, 1).words())
        assert got == {(a, a, b) for a in range(2) for b in range(2)}

    def test_window_covering_everything(self, even_weight):
        assert consistency_set(even_weight, 0, 2) == even_weight

    def test_even_weight_short_window_is_everything(self, even_weight):
        assert consistency_set(even_weight, 0, 1) == ambient_code(even_weight.space)

    def test_contains_code(self, even_weight, repetition):
        for code in (even_weight, repetition):
            for k in range(3):
                for L in range(3):
                    assert code.is_subcode_of(consistency_set(code, k, L))

    def test_matches_brute_force(self):
        rng = random.Random(97)
        for _ in range(20):
            sp = space(*[(rng.choice([2, 3, 4]),) for _ in range(rng.randint(2, 3))])
            code = code_from_generators(
                sp, [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)]
            )
            for k in range(sp.horizon):
                for L in range(sp.horizon + 1):
                    got = set(consistency_set(code, k, L).words())
                    assert got == brute_consistency(code, k, L)


class TestObservableSupercode:
    def test_repetition_window_one(self, repetition):
        assert observable_supercode(repetition, 1) == repetition

    def test_even_weight_windows(self, even_weight):
        assert observable_supercode(even_weight, 1) == ambient_code(
            even_weight.space
        )
        assert observable_supercode(even_weight, 2) == even_weight

    def test_ambient_at_zero(self):
        amb = ambient_code(binary_space(3))
        assert observable_supercode(amb, 0) == amb

    def test_decreasing_in_window(self, even_weight):
        prev = None
        for L in range(4):
            cur = observable_supercode(even_weight, L)
            assert even_weight.is_subcode_of(cur)
            if prev is not None:
                assert cur.is_subcode_of(prev)
            prev = cur


class TestObserveProfile:
    def test_repetition_index(self, repetition):
        assert observe_profile(repetition).index == 1

    def test_even_weight_index(self, even_weight):
        assert observe_profile(even_weight).index == 2

    def test_ambient_index(self):
        assert observe_profile(ambient_code(binary_space(3))).index == 0

    def test_per_position_minima_realize_code(self, even_weight, repetition):
        from groupcodes.codes import intersect

        for code in (even_weight, repetition):
            profile = observe_profile(code)
            result = ambient_code(code.space)
            for k, lk in enumerate(profile.lengths):
                result = intersect(result, consistency_set(code, k, lk))
            assert result == code


def reference_observe_lengths(code, index):
    """The greedy of observe_profile, recomputing the full meet per trial."""
    from groupcodes.codes import intersect

    def meets_at(lengths):
        result = ambient_code(code.space)
        for k, lk in enumerate(lengths):
            result = intersect(result, consistency_set(code, k, lk))
        return result

    lengths = [index] * code.space.horizon
    for k in range(len(lengths)):
        while lengths[k] > 0:
            trial = list(lengths)
            trial[k] -= 1
            if meets_at(trial) != code:
                break
            lengths = trial
    return tuple(lengths)


def test_greedy_matches_full_recomputation(exhaustive_corpus, random_corpus):
    for code in exhaustive_corpus + random_corpus[:100]:
        profile = observe_profile(code)
        assert observable_supercode(code, profile.index) == code
        if profile.index:
            assert observable_supercode(code, profile.index - 1) != code
        assert profile.lengths == reference_observe_lengths(code, profile.index)


class TestDualityReport:
    def test_even_weight_golden(self, even_weight):
        report = check_control_observe_duality(even_weight)
        assert report.ok
        assert report.control_index == 1
        assert report.dual_observe_index == 1
        assert report.observe_index == 2
        assert report.dual_control_index == 2

    def test_repetition_golden(self, repetition):
        report = check_control_observe_duality(repetition)
        assert report.ok
        assert report.control_index == 2
        assert report.dual_observe_index == 2

    def test_ambient(self):
        report = check_control_observe_duality(ambient_code(binary_space(3)))
        assert report.ok
        assert report.control_index == 0
        assert report.dual_observe_index == 0

    def test_random_codes_pass(self):
        rng = random.Random(101)
        for _ in range(12):
            sp = space(*[(rng.choice([2, 4, 3]),) for _ in range(rng.randint(2, 3))])
            code = code_from_generators(
                sp, [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)]
            )
            report = check_control_observe_duality(code)
            assert report.ok

    def test_render_mentions_both_conventions(self, repetition):
        text = check_control_observe_duality(repetition).render()
        assert "0-based" in text
        assert "1-based" in text
