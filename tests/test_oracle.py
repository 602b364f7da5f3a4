"""Tests for the brute-force oracle itself."""

import pytest

from groupcodes.codes import SequenceSpace, code_from_generators
from groupcodes.control import order_profile
from groupcodes.duality import dual_block_code
from groupcodes.groups import FiniteAbelianGroup
from groupcodes.oracle import (
    DEFAULT_BOUND,
    EnumeratedCode,
    OracleBoundExceeded,
    brute,
    brute_annihilator,
    brute_control_profile,
    brute_order_profile,
    brute_reachable_set,
    enumerate_code,
)

from .conftest import band_code
from .kernel_references import (
    fraction_annihilator,
    pairwise_reachable_set,
    triple_loop_order_profile,
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


class TestEnumerate:
    def test_diagonal(self):
        code = code_from_generators(binary_space(2), [(1, 1)])
        assert enumerate_code(code).words == ((0, 0), (1, 1))

    def test_even_weight_has_four(self, even_weight):
        assert len(enumerate_code(even_weight).words) == 4

    def test_zero_code(self):
        code = code_from_generators(binary_space(2), [])
        assert enumerate_code(code).words == ((0, 0),)

    def test_bound_enforced(self):
        sp = space((16,), (16,), (16,))
        full = code_from_generators(
            sp, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        )
        with pytest.raises(OracleBoundExceeded):
            enumerate_code(full, bound=100)


class TestBruteDispatch:
    def test_reachable_repetition(self, repetition):
        got = set(brute("reachable_set", repetition, 1, 1))
        assert got == {(0, 0, 0)}

    def test_annihilator_of_two_in_z4(self):
        code = code_from_generators(space((4,)), [(2,)])
        assert set(brute("annihilator", code)) == {(0,), (2,)}

    def test_order_profile_zero_code(self):
        code = code_from_generators(binary_space(3), [])
        assert brute("order_profile", code) == (0, 1, 2, 3)

    def test_smith_invariants(self, even_weight):
        assert brute("smith_invariants", even_weight) == (2, 2)
        mixed = code_from_generators(space((2,), (3,)), [(1, 1)])
        assert brute("smith_invariants", mixed) == (6,)
        cyc8 = code_from_generators(space((8,), (4,)), [(1, 1)])
        assert brute("smith_invariants", cyc8) == (8,)

    def test_consistency_set_repetition(self, repetition):
        # x lies in (C_f)_k[L] when x on [k, k+L+1) is a codeword's: any x
        # on one symbol, x_0 = x_1 on [0, 2), x_1 = x_2 on [1, 3), and C
        # itself on [0, 3).
        assert len(brute("consistency_set", repetition, 0, 0)) == 8
        assert set(brute("consistency_set", repetition, 0, 1)) == {
            (0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)
        }
        assert set(brute("consistency_set", repetition, 1, 1)) == {
            (0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1)
        }
        assert set(brute("consistency_set", repetition, 0, 2)) == {(0, 0, 0), (1, 1, 1)}

    def test_control_profile(self, repetition, even_weight):
        # Repetition: only 000 vanishes before symbol 1 or 2, so C_k(L) = C
        # once the tail from k + L is empty: L = 2 at k = 1, L = 1 at k = 2.
        assert brute("control_profile", repetition) == (0, 2, 1)
        # Even weight: 011 vanishes before symbol 1, and its tail on [2, 3)
        # is 1, so C_1(1) = C; C_1(0) has the tails 00 and 11 on [1, 3)
        # only.  Only 000 vanishes before symbol 2, so L = 1 there.
        assert brute("control_profile", even_weight) == (0, 1, 1)

    def test_control_profile_search_is_bounded(self):
        # Not a group: no word vanishes before symbol 1, so no C_1(L) is
        # the whole list, and the search fails at L = N - k.
        enum = EnumeratedCode((2, 2), ((1, 1),), (0, 1, 2))
        with pytest.raises(AssertionError, match="control length"):
            brute_control_profile(enum)

    def test_verify_decomposition(self, repetition, even_weight):
        assert brute("verify_decomposition", repetition, [((1, 1, 1), 2)])
        assert brute("verify_decomposition", even_weight, [((1, 1, 0), 2), ((0, 1, 1), 2)])
        # A wrong order, a non-codeword, a dependent pair and a missing factor.
        for pairs in (
            [((1, 1, 0), 4), ((0, 1, 1), 2)],
            [((1, 0, 0), 2), ((0, 1, 1), 2)],
            [((1, 1, 0), 2), ((1, 1, 0), 2)],
            [((1, 1, 0), 2)],
        ):
            assert not brute("verify_decomposition", even_weight, pairs), pairs

    def test_unknown_predicate(self, even_weight):
        with pytest.raises(ValueError):
            brute("no_such_thing", even_weight)


class TestOnePassTwins:
    """Each one-pass twin against the retired route it replaced
    (``kernel_references``), and on the band specs those routes could not
    finish."""

    @pytest.mark.parametrize("corpus", ["exhaustive_corpus", "mixed_corpus"])
    def test_match_retired_routes(self, corpus, request):
        for code in request.getfixturevalue(corpus):
            enum = enumerate_code(code)
            N = code.space.horizon
            for k in range(N):
                for L in range(N - k + 1):
                    got = brute_reachable_set(enum, k, L)
                    assert got == pairwise_reachable_set(enum, k, L), (code.basis, k, L)
            got = brute_annihilator(enum, DEFAULT_BOUND)
            assert got == fraction_annihilator(enum, DEFAULT_BOUND), code.basis
            assert brute_order_profile(enum) == triple_loop_order_profile(enum), code.basis

    @pytest.mark.parametrize(
        "name", ["z4_band8_code.spec", "z4_band8_dual.spec", "mixed_band8.spec"]
    )
    def test_band_order_profile(self, name):
        code = band_code(name)
        assert brute_order_profile(enumerate_code(code)) == order_profile(code).bounds

    @pytest.mark.parametrize("name", ["z4_band8_code.spec", "z4_band8_dual.spec"])
    def test_band_annihilator(self, name):
        code = band_code(name)
        words = brute_annihilator(enumerate_code(code), DEFAULT_BOUND)
        dual = dual_block_code(code)
        assert dual.cardinality == len(words)
        assert all(map(dual.contains, words))
