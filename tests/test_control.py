"""Tests for reachability, control profiles, chunking and order profiles.

Brute-force references below transcribe the definitions as loops over
enumerated codewords, independently of the Howell machinery.
"""

import functools
import itertools
import operator
import random
from collections import Counter
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcodes.codes import (
    BlockCode,
    SequenceSpace,
    _annihilator_order,
    _gap_lengths,
    _internal,
    code_from_generators,
    intersect,
    join,
    window_internal,
    window_order,
    zero_code,
)
from groupcodes.control import (
    ProfileInsufficientError,
    _order_splits,
    _scaled_form,
    _window_solution,
    chunk_decompose,
    control_profile,
    controllable_subcode,
    order_profile,
    reachable_set,
)
from groupcodes.groups import FiniteAbelianGroup
from groupcodes.linalg import (
    ResidueMatrix,
    contains_vector,
    coset_reduce,
    head_kernel,
    head_solve,
    homomorphism_graph,
    vector_order,
)
from groupcodes.oracle import brute, enumerate_code

from .conftest import BAND_SPEC_PATHS, band_code
from .kernel_references import (
    order_split_everywhere,
    pairwise_reachable_set,
    scale_rows,
    stacked_controllable_subcode,
    triple_loop_order_profile,
)
from .test_codes import mixed_codes


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


class TestReachableSet:
    def test_k_zero_is_whole_code(self, repetition, even_weight):
        for code in (repetition, even_weight):
            assert reachable_set(code, 0, 0) == code

    def test_repetition_middle(self, repetition):
        got = set(reachable_set(repetition, 1, 1).words())
        assert got == {(0, 0, 0)}

    def test_even_weight_middle(self, even_weight):
        assert reachable_set(even_weight, 1, 1) == even_weight

    def test_vacuous_tail(self, repetition):
        assert reachable_set(repetition, 2, 5) == repetition

    def test_chain_monotone(self, even_weight, repetition):
        for code in (even_weight, repetition):
            for k in range(3):
                for L in range(3):
                    small = reachable_set(code, k, L)
                    large = reachable_set(code, k, L + 1)
                    assert small.is_subcode_of(large)

    def test_matches_brute_force(self):
        rng = random.Random(71)
        for _ in range(25):
            sp = space(*[(rng.choice([2, 3, 4]),) for _ in range(rng.randint(2, 4))])
            code = code_from_generators(
                sp, [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)]
            )
            enum = enumerate_code(code)
            for k in range(sp.horizon):
                for L in range(sp.horizon - k + 1):
                    got = set(reachable_set(code, k, L).words())
                    assert got == set(pairwise_reachable_set(enum, k, L))


class TestControlProfile:
    def test_even_weight(self, even_weight):
        profile = control_profile(even_weight)
        assert profile.lengths == (0, 1, 1)
        assert profile.index == 1

    def test_repetition(self, repetition):
        profile = control_profile(repetition)
        assert profile.lengths == (0, 2, 1)
        assert profile.index == 2

    def test_full_ambient(self):
        sp = space((4,), (2,), (3,))
        n = len(sp.flat_moduli)
        full = code_from_generators(
            sp, [[1 if i == j else 0 for i in range(n)] for j in range(n)]
        )
        assert control_profile(full).lengths == (0, 0, 0)

    def test_l_controllability(self, repetition):
        profile = control_profile(repetition)
        assert not profile.is_l_controllable(1)
        assert profile.is_l_controllable(2)


class TestControllableSubcode:
    def test_window_sum_identity(self):
        # The uniform-gap controllable subcode equals the sum of the
        # window-supported subgroups of width L+1.
        from groupcodes.codes import join, window_internal

        rng = random.Random(73)
        for _ in range(20):
            sp = space(*[(rng.choice([2, 4]),) for _ in range(rng.randint(2, 4))])
            code = code_from_generators(
                sp, [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)]
            )
            for L in range(sp.horizon):
                sub = controllable_subcode(code, L)
                acc = zero_code(sp)
                for k in range(sp.horizon):
                    acc = join(acc, window_internal(code, k, min(k + L + 1, sp.horizon)))
                assert sub == acc


class TestChunkDecompose:
    def test_zero_word(self, even_weight):
        profile = control_profile(even_weight)
        assert chunk_decompose(even_weight, (0, 0, 0), profile) == []

    def test_single_chunk(self, even_weight):
        profile = control_profile(even_weight)
        chunks = chunk_decompose(even_weight, (1, 1, 0), profile)
        assert [c.word for c in chunks] == [(1, 1, 0)]
        assert (chunks[0].start, chunks[0].stop) == (0, 2)

    def test_greedy_elimination(self, even_weight):
        profile = control_profile(even_weight)
        chunks = chunk_decompose(even_weight, (1, 0, 1), profile)
        assert [c.word for c in chunks] == [(1, 1, 0), (0, 1, 1)]

    def test_chunks_sum_and_support(self):
        rng = random.Random(79)
        for _ in range(20):
            sp = space(*[(rng.choice([2, 4, 3]),) for _ in range(rng.randint(2, 4))])
            code = code_from_generators(
                sp, [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)]
            )
            profile = control_profile(code)
            moduli = sp.flat_moduli
            for word in code.words():
                chunks = chunk_decompose(code, word, profile)
                acc = [0] * len(moduli)
                for ch in chunks:
                    assert code.contains(ch.word)
                    sl = sp.flat_slice(ch.start, ch.stop)
                    outside = ch.word[: sl.start] + ch.word[sl.stop :]
                    assert not any(outside)
                    acc = [(a + b) % m for a, b, m in zip(acc, ch.word, moduli)]
                assert tuple(acc) == word

    def test_rejects_non_codeword(self, repetition):
        profile = control_profile(repetition)
        with pytest.raises(ValueError):
            chunk_decompose(repetition, (1, 0, 0), profile)

    def test_rejects_wrong_width(self, even_weight):
        profile = control_profile(even_weight)
        for word in [(1, 1, 0, 1), (1, 1)]:
            with pytest.raises(ValueError):
                chunk_decompose(even_weight, word, profile)

    def test_insufficient_profile_reports_position(self, repetition):
        with pytest.raises(ProfileInsufficientError) as info:
            chunk_decompose(repetition, (1, 1, 1), (0, 0, 0))
        assert info.value.position == 0


def transversal_order_profile(code):
    """The order profile by one test per coset of C ∩ [n, N).

    Whether c splits at (l, n) depends only on c modulo C ∩ [n, N).  The
    Howell rows of C with pivot before the cut, with coefficients below
    their pivot orders, reach each coset once; each row is split once and
    every class takes the same combination of the row splits.  The class
    splits when, for some divisor t of the exponent up to the order of its
    truncation, t times its prefix part lies in t·(P ∩ S).
    """
    sp = code.space
    N = sp.horizon
    moduli = sp.flat_moduli
    exponent = lcm(*moduli)
    divisors = [t for t in range(1, exponent + 1) if exponent % t == 0]

    def combine(coeffs, rows, mods):
        return tuple(
            sum(q * row[j] for q, row in zip(coeffs, rows)) % m
            for j, m in enumerate(mods)
        )

    def splits_everywhere(prefix, suffix, n):
        cut = sp.offsets()[n]
        both = intersect(prefix, suffix)
        gens = prefix.basis.rows + suffix.basis.rows
        graph = homomorphism_graph(gens, tuple(exponent for _ in gens), moduli)
        heads, head_splits, orders = [], [], []
        for row, (pivot, order) in zip(code.basis.rows, code.pivots()):
            if pivot >= cut:
                break
            coeffs = head_solve(graph, len(moduli), row)
            if coeffs is None:
                return False
            heads.append(row[:cut])
            head_splits.append(
                combine(coeffs[: len(prefix.basis.rows)], prefix.basis.rows, moduli)
            )
            orders.append(order)
        for coeffs in itertools.product(*[range(o) for o in orders]):
            c1 = combine(coeffs, head_splits, moduli)
            bound = vector_order(combine(coeffs, heads, moduli[:cut]), moduli[:cut])
            if not any(
                contains_vector(
                    scale_rows(both.basis, t),
                    tuple((t * e) % m for e, m in zip(c1, moduli)),
                )
                for t in divisors
                if t <= bound
            ):
                return False
        return True

    bounds = []
    for l in range(N + 1):
        suffix = window_internal(code, l, N)
        bounds.append(
            next(
                (
                    n
                    for n in range(l, N)
                    if splits_everywhere(window_internal(code, 0, n), suffix, n)
                ),
                N,
            )
        )
    return tuple(bounds)


def plain_split_bounds(code):
    """Least n(l) with C = C ∩ [0, n) + C ∩ [l, N): the order profile
    without its order condition."""
    N = code.space.horizon
    bounds = []
    for l in range(N + 1):
        n = l
        suffix = window_internal(code, l, N)
        while join(window_internal(code, 0, n), suffix) != code:
            n += 1
        bounds.append(n)
    return tuple(bounds)


def graph_order_bounds(code):
    """The order profile with every (l, n) decided by the split graph alone,
    with no count first, at every divisor level 1 < t < exponent: the route
    ``order_profile`` took before it counted and kept only the prime-power
    levels."""
    N = code.space.horizon
    exponent = lcm(*code.space.flat_moduli)
    levels = [t for t in range(2, exponent) if exponent % t == 0]
    bounds = []
    for l in range(N + 1):
        suffix = window_internal(code, l, N)
        for n in range(l, N):
            prefix = window_internal(code, 0, n)
            if order_split_everywhere(code, prefix, suffix, n, levels):
                break
        else:
            n = N
        bounds.append(n)
    return tuple(bounds)


MIXED_PRIME_SYMBOLS = ((6,), (12,), (2, 3), (9, 2), (4, 3), (10,), (2, 6), (36,))
# Composite exponents, where the order condition has prime-power levels.
PRIME_POWER_SYMBOLS = ((8,), (9,), (24,), (36,), (72,), (27,))


class TestOrderProfile:
    def test_rectangular_code(self):
        sp = binary_space(2)
        code = code_from_generators(sp, [(1, 0), (0, 1)])
        assert order_profile(code).bounds == (0, 1, 2)

    def test_diagonal_needs_full_window(self):
        sp = binary_space(2)
        code = code_from_generators(sp, [(1, 1)])
        profile = order_profile(code)
        assert profile.bounds[1] == 2

    def test_zero_code(self):
        profile = order_profile(zero_code(binary_space(3)))
        assert profile.bounds == (0, 1, 2, 3)
        assert profile.uniform_margin == 0

    def test_matches_brute_force(self):
        rng = random.Random(83)
        for _ in range(15):
            sp = space(*[(rng.choice([2, 4]),) for _ in range(rng.randint(2, 3))])
            code = code_from_generators(
                sp, [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)]
            )
            assert order_profile(code).bounds == triple_loop_order_profile(enumerate_code(code))

    def test_mixed_moduli_without_enumeration(self, monkeypatch):
        # Symbols Z/2+Z/4, Z/6 and Z/12; every code has some cut n whose
        # tail K = C meet [n, N) is a proper nontrivial subgroup, so that
        # cut has both words with a nonzero head and nonzero words in K.
        rng = random.Random(97)
        codes = []
        while len(codes) < 12:
            symbols = [(2, 4), (6,), (12,)]
            sp = space(*[rng.choice(symbols) for _ in range(rng.randint(2, 3))])
            gens = [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)]
            code = code_from_generators(sp, gens)
            tails = [
                window_internal(code, n, sp.horizon).cardinality
                for n in range(1, sp.horizon)
            ]
            if code.cardinality <= 48 and any(1 < t < code.cardinality for t in tails):
                codes.append((code, triple_loop_order_profile(enumerate_code(code))))

        def no_enumeration(self):
            raise AssertionError("order_profile enumerated the code")

        monkeypatch.setattr(BlockCode, "words", no_enumeration)
        for code, expected in codes:
            assert order_profile(code).bounds == expected

    @given(st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_matches_oracle_on_mixed_primes(self, data):
        # Against the all-divisor split graph always, and against the
        # oracle where the code is small enough to enumerate.
        symbols = data.draw(
            st.lists(
                st.sampled_from(MIXED_PRIME_SYMBOLS + PRIME_POWER_SYMBOLS),
                min_size=2,
                max_size=3,
            )
        )
        sp = space(*symbols)
        gens = data.draw(
            st.lists(
                st.tuples(*[st.integers(0, m - 1) for m in sp.flat_moduli]),
                min_size=1,
                max_size=2,
            )
        )
        code = code_from_generators(sp, gens)
        bounds = order_profile(code).bounds
        assert bounds == graph_order_bounds(code)
        if code.cardinality <= 400:
            assert bounds == brute("order_profile", code)

    @given(st.data())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_counted_split_matches_the_split_graph(self, mixed_corpus, data):
        # A corpus code, or a random code over one of the corpus spaces.
        code = data.draw(st.sampled_from(mixed_corpus))
        gens = data.draw(
            st.lists(
                st.tuples(*[st.integers(0, m - 1) for m in code.space.flat_moduli]),
                max_size=3,
            )
        )
        if gens:
            code = code_from_generators(code.space, gens)
        assert order_profile(code).bounds == graph_order_bounds(code)

    def test_failed_plain_split_builds_no_graph(self, mixed_corpus, monkeypatch):
        import groupcodes.control as control

        calls, failed = [], 0
        original = control._order_splits

        def counted(code, l, n, levels, form):
            suffix = window_internal(code, l, code.space.horizon)
            calls.append(join(window_internal(code, 0, n), suffix) == code)
            return original(code, l, n, levels, form)

        monkeypatch.setattr(control, "_order_splits", counted)
        for code in mixed_corpus:
            N = code.space.horizon
            for l in range(N + 1):
                suffix = window_internal(code, l, N)
                failed += sum(
                    join(window_internal(code, 0, n), suffix) != code for n in range(l, N)
                )
            order_profile(code)
        assert failed and calls and all(calls)

    def test_levels_are_the_prime_powers_below_the_exponent(self, monkeypatch):
        # Z/360 = Z/8 + Z/9 + Z/5: levels 2, 4 and 3 out of 22 proper
        # divisors.
        import groupcodes.control as control

        seen = []
        original = control._order_splits

        def recorded(code, l, n, levels, form):
            seen.append(tuple(levels))
            return original(code, l, n, levels, form)

        monkeypatch.setattr(control, "_order_splits", recorded)
        code = code_from_generators(space((360,), (360,)), [(1, 2), (0, 12)])
        assert order_profile(code).bounds == graph_order_bounds(code)
        assert seen and set(seen) == {(2, 4, 3)}

    def test_higher_prime_power_level_binds(self):
        # Over Z/2, Z/4, Z/16, Z/16 the split at (l, n) = (1, 3) passes the
        # level 2 and fails at 4 and at 8, so the levels above p decide n(1).
        sp = space((2,), (4,), (16,), (16,))
        code = code_from_generators(sp, [(1, 0, 9, 0), (0, 1, 9, 12)])
        prefix, suffix = window_internal(code, 0, 3), window_internal(code, 1, 4)
        assert order_split_everywhere(code, prefix, suffix, 3, [2])
        assert not order_split_everywhere(code, prefix, suffix, 3, [4])
        assert not order_split_everywhere(code, prefix, suffix, 3, [8])
        form = functools.partial(_scaled_form, code)
        assert _order_splits(code, 1, 3, [2], form)
        assert not _order_splits(code, 1, 3, [4], form)
        assert not _order_splits(code, 1, 3, [8], form)
        assert order_profile(code).bounds == brute("order_profile", code) == (0, 4, 4, 4, 4)

    def test_squarefree_exponent_builds_no_level_kernel(self, monkeypatch):
        # With no level to test the counted plain split is the answer: no
        # split test, no Howell form, same bounds as the all-divisor route.
        import groupcodes.control as control

        calls = Counter()
        for name in ("howell_form", "head_solve", "_order_splits", "_scaled_form"):
            original = getattr(control, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(control, name, counted)
        sp = space((6,), (2, 3), (30,))
        rng = random.Random(7)
        codes = []
        for _ in range(20):
            gens = [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)]
            codes.append(code_from_generators(sp, gens))
        bounds = [order_profile(code).bounds for code in codes]
        assert calls == Counter()
        monkeypatch.undo()
        assert bounds == [graph_order_bounds(code) for code in codes]

    def test_matches_transversal(self, random_corpus):
        for code in random_corpus[:100]:
            assert order_profile(code).bounds == transversal_order_profile(code)

    def test_at_least_plain_split_bound(self):
        # Dropping the order condition can only shrink the minimal window.
        rng = random.Random(89)
        for _ in range(15):
            sp = space(*[(rng.choice([2, 4, 3]),) for _ in range(rng.randint(2, 3))])
            code = code_from_generators(
                sp, [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)]
            )
            bounds = order_profile(code).bounds
            assert all(b >= n for b, n in zip(bounds, plain_split_bounds(code)))

    def test_order_condition_binds_on_mixed_primes(self):
        # Codes whose order condition, not the split, decides some n(l).
        # Random codes rarely have one; symbol orders that divide each
        # other along the horizon make them common.
        rng = random.Random(101)
        found = 0
        for _ in range(2000):
            moduli = [rng.choice([2, 3, 6])]
            moduli += [moduli[0] * rng.choice([1, 2, 3])]
            moduli += [moduli[1] * rng.choice([1, 2, 3])]
            sp = space(*[(m,) for m in moduli])
            gens = [[rng.randrange(m) for m in moduli] for _ in range(2)]
            code = code_from_generators(sp, gens)
            if lcm(*moduli) % 6 or code.cardinality > 72:
                continue
            bounds = order_profile(code).bounds
            if bounds != plain_split_bounds(code):
                assert bounds == brute("order_profile", code)
                found += 1
        assert found >= 10


def split_decisions(code):
    """(l, n, t, counted, reference) for every l <= n < N and every level
    t: None (the plain split alone), then each divisor 1 < t < exponent
    of the space, the prime powers among them."""
    N = code.space.horizon
    exponent = lcm(*code.space.flat_moduli)
    levels = [None] + [t for t in range(2, exponent) if exponent % t == 0]
    form, out = functools.partial(_scaled_form, code), []
    for l in range(N + 1):
        suffix = window_internal(code, l, N)
        for n in range(l, N):
            prefix = window_internal(code, 0, n)
            for t in levels:
                tested = [] if t is None else [t]
                out.append((
                    l, n, t,
                    _order_splits(code, l, n, tested, form),
                    order_split_everywhere(code, prefix, suffix, n, tested),
                ))
    return out


# Symbols over the moduli {2, 3, 4, 8, 9, 12, 16, 27, 36}.
TWIN_SYMBOLS = ((2,), (3,), (4,), (8,), (9,), (12,), (16,), (27,), (36,), (2, 4), (4, 12))


class TestCountedOrderSplit:
    """The counted decision of ``_order_splits`` against the split-graph
    route, at one level at a time, for every (l, n)."""

    def test_matches_split_graph_on_corpora(self, exhaustive_corpus, mixed_corpus):
        outcomes = Counter()
        for code in exhaustive_corpus + mixed_corpus:
            form = functools.partial(_scaled_form, code)
            for l, n, t, counted, reference in split_decisions(code):
                assert counted == reference, (code.basis, l, n, t)
                plain = _order_splits(code, l, n, [], form)
                outcomes[t is None, plain, counted] += 1
        # Both outcomes of the plain split, and levels tested on it.
        assert outcomes[True, True, True] and outcomes[True, False, False]
        assert outcomes[False, True, True] and outcomes[False, False, False]

    def test_higher_levels_over_z16(self):
        # Z/2, Z/4, Z/16, Z/16: the levels 2, 4 and 8 decide differently.
        sp = space((2,), (4,), (16,), (16,))
        code = code_from_generators(sp, [(1, 0, 9, 0), (0, 1, 9, 12)])
        decisions = split_decisions(code)
        assert all(counted == reference for *_, counted, reference in decisions)
        at_1_3 = {t: counted for l, n, t, counted, _ in decisions if (l, n) == (1, 3)}
        assert {t: at_1_3[t] for t in (2, 4, 8)} == {2: True, 4: False, 8: False}

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_split_graph_by_hypothesis(self, data):
        sp = space(*data.draw(st.lists(st.sampled_from(TWIN_SYMBOLS), min_size=1, max_size=4)))
        gens = data.draw(
            st.lists(
                st.tuples(*[st.integers(0, m - 1) for m in sp.flat_moduli]),
                max_size=3,
            )
        )
        code = code_from_generators(sp, gens)
        for l, n, t, counted, reference in split_decisions(code):
            assert counted == reference, (l, n, t)


def reference_control_lengths(code):
    """The control profile by its definition: grow L until the reachable
    set C_k(L) is the whole code."""
    N, lengths = code.space.horizon, []
    for k in range(N):
        L = 0
        while reachable_set(code, k, L) != code:
            L += 1
            # The reachable set clips at N: a wrong one fails here
            # instead of searching forever.
            assert L <= N, f"no length up to the horizon reaches the code at {k}"
        lengths.append(L)
    return tuple(lengths)


def reference_controllable_subcode(code, L):
    """The meet of the reachable sets C_k(L) over every position."""
    result = code
    for k in range(code.space.horizon):
        result = intersect(result, reachable_set(code, k, L))
    return result


def reference_window_solution(code, inner, position, target):
    """The chunk by the projection graph [row at the position | row] of
    ``inner``: a particular word, reduced by the words vanishing there."""
    sl = code.space.flat_slice(position, position + 1)
    head = code.basis.moduli[sl]
    rows = tuple(row[sl] + row for row in inner.basis.rows)
    graph = ResidueMatrix(head + inner.basis.moduli, rows)
    particular = head_solve(graph, len(head), target)
    if particular is None:
        return None
    return coset_reduce(head_kernel(graph, len(head)), particular)


class TestTableReads:
    """Orders and window sums read off the window table, on mixed moduli
    with modulus-1 columns, against the subgroups they count."""

    def test_control_profile_matches_reachable_sets(self, mixed_corpus, random_corpus):
        for code in mixed_corpus + random_corpus[:60]:
            assert control_profile(code).lengths == reference_control_lengths(code)

    def test_control_profile_matches_oracle(self, exhaustive_corpus, random_corpus):
        # The oracle's control profile grows L until the enumerated
        # reachable set is the whole code.
        for code in exhaustive_corpus + random_corpus:
            assert control_profile(code).lengths == brute("control_profile", code), code.basis

    def test_controllable_subcode_is_meet_of_reachable_sets(self, mixed_corpus):
        for code in mixed_corpus:
            for L in range(code.space.horizon + 1):
                expected = reference_controllable_subcode(code, L)
                assert controllable_subcode(code, L) == expected

    def test_window_solution_matches_projection_graph(self, mixed_corpus):
        for code in mixed_corpus:
            N = code.space.horizon
            for k in range(N):
                symbols = itertools.product(*map(range, code.space.symbols[k].moduli))
                for target in symbols:
                    for stop in range(k + 1, N + 1):
                        inner = window_internal(code, k, stop)
                        expected = reference_window_solution(code, inner, k, target)
                        assert _window_solution(code, stop, k, target) == expected

    def test_controllable_subcode_rejects_negative_gap(self, mixed_corpus):
        with pytest.raises(ValueError):
            controllable_subcode(mixed_corpus[0], -1)

    def test_window_order_is_window_cardinality(self, mixed_corpus):
        for code in mixed_corpus:
            N = code.space.horizon
            for a in range(N + 1):
                for b in range(a, N + 1):
                    inner = window_internal(code, a, b)
                    assert window_order(code, a, b) == len(set(inner.words()))


def full_gap_lengths(horizon, order):
    """``_gap_lengths`` as it searched before the two-pointer: every
    position from L = 0, every order read again."""
    total = order(0, horizon)
    lengths = []
    for k in range(horizon):
        suffix = order(k, horizon)
        L = 0
        while suffix * order(0, k + L) != total * order(k, k + L):
            L += 1
        lengths.append(L)
    return tuple(lengths)


@st.composite
def banded_codes(draw):
    """Codes over 1-10 symbols spanned by words on short random windows, so
    that the gap lengths rise and fall along the horizon."""
    symbol = draw(st.sampled_from(((2,), (4,), (2, 2), (3,), (8,))))
    N = draw(st.integers(1, 10))
    sp = space(*[symbol] * N)
    width = len(symbol)
    gens = []
    for _ in range(draw(st.integers(0, 5))):
        a = draw(st.integers(0, N - 1))
        b = draw(st.integers(a + 1, min(N, a + 4)))
        word = [0] * (N * width)
        for i in range(a * width, b * width):
            word[i] = draw(st.integers(0, symbol[i % width] - 1))
        gens.append(word)
    return code_from_generators(sp, gens)


def _both_orders(code):
    """The window orders of C and of C-perp, as the counts read them."""
    return (
        code._prefixes.order,
        lambda a, b: _annihilator_order(code, a, b),
    )


def _counted(order):
    reads = []

    def read(a, b):
        reads.append((a, b))
        return order(a, b)

    return read, reads


class TestGapLengthsTwoPointer:
    """The gap lengths, searched from max(L_{k-1} - 1, 0) with each prefix
    order read once, against the search from 0 at every position."""

    @given(st.one_of(mixed_codes(), banded_codes()))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_the_full_search(self, code):
        N = code.space.horizon
        for order in _both_orders(code):
            assert _gap_lengths(N, order) == full_gap_lengths(N, order)

    def test_one_call_reads_at_most_4n_minus_3(self, exhaustive_corpus, random_corpus):
        # The bound of the docstring; a constant profile L >= 1 takes four
        # reads at each inner position (|Z_k|, a failing and a passing
        # window, one new prefix), so 3N is not a bound.
        bands = [band_code(path.name) for path in BAND_SPEC_PATHS]
        total = horizons = 0
        for code in exhaustive_corpus + random_corpus + bands:
            N = code.space.horizon
            for order in _both_orders(code):
                read, reads = _counted(order)
                _gap_lengths(N, read)
                assert len(reads) <= 4 * N - 3, (code, reads)
                total, horizons = total + len(reads), horizons + N
        # On average far fewer; the full search reads about 5.4 per position.
        assert total <= 3 * horizons

    def test_prefix_orders_are_read_once(self):
        for path in BAND_SPEC_PATHS:
            code = band_code(path.name)
            for order in _both_orders(code):
                read, reads = _counted(order)
                _gap_lengths(code.space.horizon, read)
                prefixes = [b for a, b in reads if a == 0]
                assert len(prefixes) == len(set(prefixes))

    def test_block_analyze_counts_once(self, monkeypatch, capsys):
        # Once, on the code's prefix table for the control lengths, which
        # control_profile and order_profile both read.  The observe index
        # is read off the observe lengths, with no count on the annihilator
        # orders.  Every module that binds the count is patched.
        import sys

        from groupcodes.cli import main
        from groupcodes.codes import _PrefixTable

        calls = []

        def counted(horizon, order):
            calls.append(order)
            return _gap_lengths(horizon, order)

        binders = [
            module for name, module in sys.modules.items()
            if name.startswith("groupcodes.") and vars(module).get("_gap_lengths") is _gap_lengths
        ]
        assert len(binders) >= 3  # codes, observe, convolutional
        for module in binders:
            monkeypatch.setattr(module, "_gap_lengths", counted)
        for path in BAND_SPEC_PATHS:
            calls.clear()
            assert main(["analyze", str(path)]) == 0
            assert len(calls) == 1, path.name
            assert isinstance(calls[0].__self__, _PrefixTable)
        capsys.readouterr()


class TestPlainSplitFromGapLengths:
    """The plain split C = C ∩ [0, n) + C ∩ [l, N), where ``order_profile``
    starts its search, against the gap lengths of ``control_profile``."""

    @given(st.one_of(mixed_codes(), banded_codes()))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_split_holds_exactly_from_l_plus_gap_length(self, code):
        N = code.space.horizon
        lengths = control_profile(code).lengths
        for l in range(N):
            suffix = window_internal(code, l, N)
            for n in range(l, N + 1):
                splits = join(window_internal(code, 0, n), suffix) == code
                assert splits == (n >= l + lengths[l]), (l, n)


class _CountedChainState:
    """A Howell kernel state that records every row pushed into it."""

    def __init__(self, state):
        self.state, self.rows, self.finished = state, [], 0

    def push(self, rows):
        rows = list(rows)
        self.rows += rows
        self.state.push(rows)

    def finish(self):
        self.finished += 1
        return self.state.finish()


def climb_counted(code):
    """Read cs_0, ..., cs_{N-1} off the chain of a fresh copy of ``code``
    whose one climb (``codes._subcode_chain``) runs on a state that counts
    its pushes, its prefix table filled before; (the copy, the kept
    chain, the counted state, the codes read)."""
    import groupcodes.codes as codes_module

    fresh = BlockCode.from_howell(code.space, code.basis.rows)
    fresh._prefixes.entry(fresh.space.horizon)
    make_state, states = codes_module._howell_state, []

    def counted_state(moduli):
        states.append(_CountedChainState(make_state(moduli)))
        return states[-1]

    codes_module._howell_state = counted_state
    try:
        read = [controllable_subcode(fresh, L) for L in range(fresh.space.horizon)]
        read += [controllable_subcode(fresh, L) for L in range(fresh.space.horizon)]
    finally:
        codes_module._howell_state = make_state
    chain = fresh.__dict__["_subcodes"]
    assert isinstance(chain, tuple) and len(states) == 1
    return fresh, chain, states[0], read


class TestCountedChain:
    """The controllable subcodes cs_0 ⊆ cs_1 ⊆ ... read off one Howell
    state per code, climbed once and kept as a tuple
    (``codes._subcode_chain``), against one Howell form of each gap's
    stacked window rows (``kernel_references.stacked_controllable_subcode``):
    equal codes at every gap, equal sums one object, each distinct window
    row pushed once, and the number of rows pushed pinned on the band
    codes."""

    # (rows pushed, gap of the top) per modulus and horizon; the top is
    # the tap's length minus one.  One Howell form per gap stacks 41, 89
    # and 185 window rows over gaps 0..2 on the Z/8 and Z/6 codes, and 14,
    # 30 and 62 on Z/9, whose windows below gap 2 hold no row.
    PUSHED = {
        8: {16: (16, 2), 32: (32, 2), 64: (64, 2)},
        9: {16: (14, 2), 32: (30, 2), 64: (62, 2)},
        6: {16: (28, 2), 32: (60, 2), 64: (124, 2)},
    }

    def assert_chain_matches_stacked_rows(self, code):
        fresh, chain, state, read = climb_counted(code)
        N, top = code.space.horizon, len(chain) - 1
        assert read[N:] == read[:N] and all(map(operator.is_, read[N:], read[:N]))
        assert chain[top] is fresh and fresh not in chain[:top]
        for L, subcode in enumerate(read[:N]):
            assert subcode is chain[min(L, top)]
            if L <= top + 1 or L == N - 1:
                assert subcode.basis.rows == stacked_controllable_subcode(code, L).basis.rows
            if L and subcode.basis.rows == read[L - 1].basis.rows:
                assert subcode is read[L - 1]
        assert len(state.rows) == len(set(state.rows))
        # The last gap climbed is the top, or N - 2 if only the whole
        # window [0, N) makes the code, which is not climbed to.
        climbed = min(top, N - 2)
        windows = {
            row
            for L in range(climbed + 1)
            for k in range(N)
            for row in _internal(fresh, k, min(k + L + 1, N))
        }
        assert set(state.rows) == windows
        assert state.finished <= climbed + 1
        return len(state.rows), top

    @pytest.mark.parametrize("modulus", sorted(PUSHED))
    def test_band_codes(self, modulus):
        from .test_structure import BAND_TAPS, band_block_code

        pushed = {
            n: self.assert_chain_matches_stacked_rows(
                band_block_code(n, modulus, BAND_TAPS[modulus])
            )
            for n in self.PUSHED[modulus]
        }
        assert pushed == self.PUSHED[modulus]

    def test_exhaustive_corpus(self, exhaustive_corpus):
        for code in exhaustive_corpus:
            self.assert_chain_matches_stacked_rows(code)

    def test_mixed_corpus(self, mixed_corpus):
        for code in mixed_corpus:
            self.assert_chain_matches_stacked_rows(code)

    def test_reads_out_of_order_share_one_climb(self, mixed_corpus):
        # The chain is climbed once, at the first read, and kept: reads in
        # any order, a gap read twice in a row included, are the stacked
        # rows' codes and the same objects as the reads in order.
        for code in mixed_corpus:
            N = code.space.horizon
            fresh = BlockCode.from_howell(code.space, code.basis.rows)
            order = list(range(N - 1, -1, -1)) + [L for L in range(N) for _ in range(2)]
            read = {}
            for L in order:
                expected = stacked_controllable_subcode(code, L)
                subcode = controllable_subcode(fresh, L)
                assert subcode.basis.rows == expected.basis.rows
                assert read.setdefault(L, subcode) is subcode
            chain = fresh.__dict__["_subcodes"]
            assert all(read[L] is chain[min(L, len(chain) - 1)] for L in range(N))
