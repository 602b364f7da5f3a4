"""Tests for exact residue-ring linear algebra.

Expected values were computed with the brute-force span enumerator below
(closure under addition), which is independent of the Howell machinery.
"""

import copy
import itertools
import operator
import random
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcodes.linalg import (
    _PACKED_MODULI,
    ResidueMatrix,
    _entry,
    _first_nonzero,
    _HowellPacked,
    _HowellSingle,
    _howell_state,
    _SMALL_PRIMES,
    _TRIAL,
    _primes,
    _reduce_vector,
    _sieve,
    _reduced,
    _trusted,
    annihilator_rows,
    contains_vector,
    coset_reduce,
    head_kernel,
    head_solve,
    homomorphism_graph,
    homomorphism_kernel,
    howell_form,
    intersect_rows,
    quotient_invariants,
    residue_matrix,
    smith_invariants,
    solve_homomorphism,
    span_cardinality,
    stack,
    vector_order,
)
from groupcodes.oracle import EnumeratedCode, brute_annihilator, brute_smith_invariants

from .kernel_references import solve_congruence_system

from .kernel_references import (
    integer_smith_diagonal,
    reduce_vector,
    smith_quotient_invariants,
    spans_equal,
)
from .test_api_surface import package_modules


def enumerate_span(rows, moduli):
    """All elements of the span, by closure under addition of generators."""
    zero = tuple(0 for _ in moduli)
    seen = {zero}
    frontier = [zero]
    gens = [tuple(e % m for e, m in zip(r, moduli)) for r in rows]
    while frontier:
        base = frontier.pop()
        for g in gens:
            nxt = tuple((x + y) % m for x, y, m in zip(base, g, moduli))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def leading_zero_closure_holds(basis_rows, moduli, span):
    """Check the Howell property directly against an enumerated span."""
    width = len(moduli)
    for k in range(width + 1):
        tail_rows = [r for r in basis_rows if not any(r[:k])]
        tail_span = enumerate_span(tail_rows, moduli)
        for v in span:
            if not any(v[:k]) and v not in tail_span:
                return False
    return True


class TestHowellForm:
    def test_single_generator_mod4(self):
        m = residue_matrix([(2, 1)], (4, 4))
        assert howell_form(m).rows == ((2, 1), (0, 2))

    def test_empty_matrix(self):
        m = residue_matrix([], (4,))
        assert howell_form(m).rows == ()

    def test_full_group_mod2(self):
        m = residue_matrix([(1, 0), (1, 1)], (2, 2))
        assert howell_form(m).rows == ((1, 0), (0, 1))

    def test_idempotent(self):
        m = residue_matrix([(2, 1), (1, 3)], (4, 6))
        once = howell_form(m)
        assert howell_form(once) == once

    def test_howell_property_enumerated(self):
        rng = random.Random(7)
        for _ in range(60):
            width = rng.randint(1, 4)
            moduli = tuple(rng.choice([1, 2, 3, 4, 6, 8]) for _ in range(width))
            rows = [
                tuple(rng.randrange(m) for m in moduli)
                for _ in range(rng.randint(0, 3))
            ]
            canon = howell_form(residue_matrix(rows, moduli))
            span = enumerate_span(rows, moduli)
            assert enumerate_span(canon.rows, moduli) == span
            assert leading_zero_closure_holds(canon.rows, moduli, span)
            assert span_cardinality(canon) == len(span)

    def test_same_span_iff_same_howell(self):
        rng = random.Random(11)
        for _ in range(40):
            moduli = tuple(rng.choice([2, 3, 4]) for _ in range(3))
            rows_a = [tuple(rng.randrange(m) for m in moduli) for _ in range(2)]
            rows_b = [tuple(rng.randrange(m) for m in moduli) for _ in range(2)]
            a = residue_matrix(rows_a, moduli)
            b = residue_matrix(rows_b, moduli)
            same_enumerated = enumerate_span(rows_a, moduli) == enumerate_span(
                rows_b, moduli
            )
            assert spans_equal(a, b) == same_enumerated

    @given(
        st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(0, 11)),
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_idempotence_property(self, rows):
        m = residue_matrix(rows, (12, 8, 9))
        once = howell_form(m)
        assert howell_form(once) == once

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ResidueMatrix((2, 2), ((2, 0),))

    def test_trivial_moduli_are_zero_columns(self):
        m = residue_matrix([(0, 1), (0, 1)], (1, 2))
        canon = howell_form(m)
        assert canon.rows == ((0, 1),)
        assert span_cardinality(canon) == 2


class TestMembership:
    def test_membership_matches_enumeration(self):
        rng = random.Random(13)
        for _ in range(30):
            moduli = tuple(rng.choice([2, 4, 6]) for _ in range(3))
            rows = [tuple(rng.randrange(m) for m in moduli) for _ in range(2)]
            span = enumerate_span(rows, moduli)
            m = residue_matrix(rows, moduli)
            for _ in range(10):
                v = tuple(rng.randrange(mm) for mm in moduli)
                assert contains_vector(m, v) == (v in span)

    def test_coset_reduce_is_constant_on_cosets(self):
        moduli = (4, 4)
        m = residue_matrix([(2, 1)], moduli)
        span = enumerate_span(m.rows, moduli)
        reps = {
            tuple(coset_reduce(m, (a, b)))
            for a in range(4)
            for b in range(4)
        }
        assert len(reps) == 16 // len(span)
        for a in range(4):
            for b in range(4):
                base = coset_reduce(m, (a, b))
                for s in span:
                    shifted = ((a + s[0]) % 4, (b + s[1]) % 4)
                    assert coset_reduce(m, shifted) == base


def smith_diagonalizers():
    """(module, name) for each Smith diagonalizer a groupcodes module binds.
    The Smith diagonal is a test reference (``kernel_references``) only."""
    names = ("_smith_with_left_inverse", "subgroup_basis")
    return [
        (module.__name__, name)
        for module in package_modules()
        for name in names
        if hasattr(module, name)
    ]


class TestSmithInvariants:
    def test_relation_matrix_already_diagonal(self):
        assert integer_smith_diagonal([[2, 0], [0, 4]]) == [2, 4]

    def test_relation_matrix_reduction(self):
        assert integer_smith_diagonal([[1, 1], [1, 3]]) == [1, 2]

    def test_span_in_mixed_moduli(self):
        m = residue_matrix([(1, 1)], (2, 3))
        assert smith_invariants(m) == (6,)

    def test_product_equals_cardinality(self):
        rng = random.Random(17)
        for _ in range(40):
            moduli = tuple(rng.choice([2, 3, 4, 8, 9]) for _ in range(3))
            rows = [tuple(rng.randrange(m) for m in moduli) for _ in range(2)]
            mat = residue_matrix(rows, moduli)
            factors = smith_invariants(mat)
            prod = 1
            for d in factors:
                prod *= d
            assert prod == len(enumerate_span(rows, moduli))
            for small, big in zip(factors, factors[1:]):
                assert big % small == 0

    def test_matches_order_statistics(self):
        # The multiset {x : d*x = 0} determines the isomorphism type; check
        # smith_invariants against a reconstruction from order counts.
        moduli = (4, 2, 3)
        rows = [(2, 1, 0), (0, 0, 1)]
        span = enumerate_span(rows, moduli)
        factors = smith_invariants(residue_matrix(rows, moduli))
        exponent = lcm(*(f for f in factors)) if factors else 1
        for d in range(1, exponent + 1):
            killed = sum(
                1
                for v in span
                if all((d * e) % m == 0 for e, m in zip(v, moduli))
            )
            expected = 1
            for f in factors:
                expected *= gcd(d, f)
            assert killed == expected


class TestSolveCongruence:
    def test_two_x_equals_two_mod_four(self):
        a = residue_matrix([(2,)], (4,))
        sol = solve_congruence_system(a, (2,))
        assert sol is not None
        assert sol.particular == (1,)
        assert enumerate_span(sol.kernel.rows, (4,)) == {(0,), (2,)}

    def test_two_x_equals_one_mod_four(self):
        a = residue_matrix([(2,)], (4,))
        assert solve_congruence_system(a, (1,)) is None

    def test_degenerate_zero_system(self):
        a = residue_matrix([(0,)], (7,))
        sol = solve_congruence_system(a, (0,))
        assert sol is not None
        assert sol.particular == (0,)
        assert span_cardinality(sol.kernel) == 7

    def test_dimension_mismatch(self):
        a = residue_matrix([(2,)], (4,))
        with pytest.raises(ValueError):
            solve_congruence_system(a, (1, 2))

    def test_solutions_verify(self):
        rng = random.Random(23)
        for _ in range(40):
            moduli = tuple(rng.choice([2, 4, 5, 6]) for _ in range(3))
            rows = [tuple(rng.randrange(m) for m in moduli) for _ in range(2)]
            a = residue_matrix(rows, moduli)
            target = tuple(rng.randrange(m) for m in moduli)
            sol = solve_congruence_system(a, target)
            in_span = target in enumerate_span(rows, moduli)
            assert (sol is not None) == in_span
            if sol is not None:
                combo = tuple(
                    sum(c * r[j] for c, r in zip(sol.particular, rows)) % moduli[j]
                    for j in range(len(moduli))
                )
                assert combo == target


class TestAnnihilator:
    def pairing_is_zero(self, x, chi, moduli):
        L = lcm(*moduli)
        return sum(a * b * (L // m) for a, b, m in zip(x, chi, moduli)) % L == 0

    def test_annihilator_by_enumeration(self):
        rng = random.Random(29)
        for _ in range(40):
            moduli = tuple(rng.choice([2, 3, 4, 6]) for _ in range(3))
            rows = [tuple(rng.randrange(m) for m in moduli) for _ in range(2)]
            mat = residue_matrix(rows, moduli)
            ann = annihilator_rows(mat)
            span = enumerate_span(rows, moduli)
            expected = {
                chi
                for chi in itertools.product(*[range(m) for m in moduli])
                if all(self.pairing_is_zero(x, chi, moduli) for x in span)
            }
            assert enumerate_span(ann.rows, moduli) == expected

    def test_cardinality_identity(self):
        moduli = (4, 4)
        mat = residue_matrix([(2, 1)], moduli)
        ann = annihilator_rows(mat)
        assert span_cardinality(mat) * span_cardinality(ann) == 16

    def test_double_annihilator(self):
        moduli = (4, 6, 2)
        mat = howell_form(residue_matrix([(2, 3, 1), (0, 2, 0)], moduli))
        assert annihilator_rows(annihilator_rows(mat)) == mat


MIXED_MODULI = st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12]), min_size=1, max_size=4)
MIXED_MODULI_WIDE = st.lists(st.sampled_from([1, 2, 3, 4, 6]), min_size=1, max_size=5)
MIXED_MODULI_SMALL = st.lists(st.sampled_from([1, 2, 3, 4, 6]), min_size=1, max_size=4)


def _rows_over(data, moduli, max_rows=4):
    return data.draw(
        st.lists(
            st.tuples(*[st.integers(-2 * m, 2 * m) for m in moduli]),
            max_size=max_rows,
        )
    )


class TestOneReducer:
    """``_reduce_vector`` reads the pivot columns its caller holds."""

    @given(st.data(), MIXED_MODULI_WIDE)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_zero_remainder_proves_membership_at_any_columns(self, data, moduli):
        # Any rows, not only Howell forms, at any held columns: their first
        # nonzero columns, shuffled, or drawn at random.  The remainder is
        # always in the vector's coset, so a zero one is membership.
        moduli = tuple(moduli)
        matrix = residue_matrix(_rows_over(data, moduli), moduli)
        rows, order = matrix.rows, span_cardinality(matrix)
        first = [next((j for j, e in enumerate(row) if e), 0) for row in rows]
        count = len(rows)
        columns = data.draw(
            st.one_of(
                st.just(first),
                st.permutations(first),
                st.lists(st.integers(0, len(moduli) - 1), min_size=count, max_size=count),
            )
        )
        coefficients = data.draw(st.lists(st.integers(0, 11), min_size=count, max_size=count))
        member = tuple(
            sum(c * row[j] for c, row in zip(coefficients, rows)) % m for j, m in enumerate(moduli)
        )
        stray = residue_matrix(_rows_over(data, moduli, max_rows=1) or [member], moduli).rows[0]
        for vector in (member, stray):
            remainder = _reduce_vector(rows, columns, moduli, vector)
            shift = tuple((a - b) % m for a, b, m in zip(vector, remainder, moduli))
            assert span_cardinality(residue_matrix(rows + (shift,), moduli)) == order
            if not any(remainder):
                assert span_cardinality(residue_matrix(rows + (vector,), moduli)) == order

    @given(st.data(), MIXED_MODULI_WIDE)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_own_record_matches_the_rescanning_reducer(self, data, moduli):
        # On a Howell form and its own record, reading the held columns is
        # the reducer that rescanned each row's pivot on every call.
        moduli = tuple(moduli)
        canon = howell_form(residue_matrix(_rows_over(data, moduli), moduli))
        rows, columns, _ = _entry(canon.rows, moduli)
        vector = residue_matrix(_rows_over(data, moduli, max_rows=1) or [moduli], moduli).rows[0]
        assert _reduce_vector(rows, columns, moduli, vector) == reduce_vector(canon, vector)


class TestKernelGraphRewrites:
    """``annihilator_rows`` (columns by ``zip``, only the columns with
    m_j < L scaled) and ``homomorphism_graph`` (unit blocks by padding)
    against the oracle's brute-force annihilator and an enumerated kernel."""

    def brute(self, rows, moduli):
        words = tuple(enumerate_span(rows, moduli))
        enum = EnumeratedCode(tuple(moduli), words, (0, len(moduli)))
        return set(brute_annihilator(enum, 1 << 12))

    @pytest.mark.parametrize(
        "moduli,rows",
        [
            ((2, 2, 2), []),  # no rows: the whole ambient
            ((4, 1, 6), []),
            ((1, 1), []),
            ((1, 4, 1, 2), [(0, 3, 0, 1)]),  # modulus-1 columns
            ((1,), [(0,)]),
            ((2, 4, 3), [(1, 2, 2), (0, 1, 1)]),  # m_j < L for every j
            ((4, 2, 4), [(2, 1, 3), (1, 0, 2)]),  # m_j < L for one column
            ((4, 4, 4), [(1, 2, 3)]),  # a single row, uniform moduli
            ((6, 9, 1, 2), [(5, 4, 0, 1)]),
        ],
    )
    def test_matches_brute_annihilator(self, moduli, rows):
        ann = annihilator_rows(residue_matrix(rows, moduli))
        assert ann == howell_form(ann)
        assert enumerate_span(ann.rows, moduli) == self.brute(rows, moduli)

    @given(st.data(), MIXED_MODULI_SMALL)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_matrices_match_brute_annihilator(self, data, moduli):
        mat = residue_matrix(_rows_over(data, moduli, max_rows=3), moduli)
        ann = annihilator_rows(mat)
        assert enumerate_span(ann.rows, moduli) == self.brute(mat.rows, moduli)

    def test_graph_unit_block_with_modulus_one_unknowns(self):
        # An unknown over Z/1 maps to zero, and its unit entry is 1 % 1 = 0.
        images = [(0, 0), (2, 0), (0, 0)]
        graph = homomorphism_graph(images, (1, 4, 1), (4, 4))
        assert graph.moduli == (4, 4, 1, 4, 1)
        assert graph.rows == ((0, 0, 0, 0, 0), (2, 0, 0, 1, 0), (0, 0, 0, 0, 0))
        kernel = homomorphism_kernel(images, (1, 4, 1), (4, 4))
        expected = {
            x
            for x in itertools.product(range(1), range(4), range(1))
            if all(sum(c * img[i] for c, img in zip(x, images)) % 4 == 0 for i in range(2))
        }
        assert enumerate_span(kernel.rows, (1, 4, 1)) == expected == {(0, 0, 0), (0, 2, 0)}
        assert homomorphism_kernel([(0,), (2,)], (1, 2), (4,)).rows == ()
        assert homomorphism_kernel([(0,), (0,)], (1, 2), (4,)).rows == ((0, 1),)


class TestIntersection:
    def test_intersection_matches_enumeration(self):
        rng = random.Random(31)
        for _ in range(30):
            moduli = tuple(rng.choice([2, 4, 3]) for _ in range(3))
            rows_a = [tuple(rng.randrange(m) for m in moduli) for _ in range(2)]
            rows_b = [tuple(rng.randrange(m) for m in moduli) for _ in range(2)]
            a = residue_matrix(rows_a, moduli)
            b = residue_matrix(rows_b, moduli)
            meet = intersect_rows(a, b)
            expected = enumerate_span(rows_a, moduli) & enumerate_span(
                rows_b, moduli
            )
            assert enumerate_span(meet.rows, moduli) == expected
        # Modulus-1 columns, mixed symbols, and zero and full spans.
        for moduli in [(1, 2, 1), (1, 1), (2, 4, 6), (6, 4), (2, 4, 6, 1), (9, 3, 1), (1,)]:
            width = len(moduli)
            units = [[int(k == j) for k in range(width)] for j in range(width)]
            spans = [[], units, [[0] * width]]
            for _ in range(12):
                count = rng.randrange(1, 4)
                spans.append([[rng.randrange(2 * m) for m in moduli] for _ in range(count)])
            for rows_a in spans:
                for rows_b in (spans[0], spans[1], rng.choice(spans[3:])):
                    meet = intersect_rows(
                        residue_matrix(rows_a, moduli), residue_matrix(rows_b, moduli)
                    )
                    assert meet == howell_form(meet)
                    expected = enumerate_span(rows_a, moduli) & enumerate_span(
                        rows_b, moduli
                    )
                    assert enumerate_span(meet.rows, moduli) == expected

    @given(st.data(), MIXED_MODULI_WIDE)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_meet_is_the_dual_of_the_join_of_annihilators(self, data, moduli):
        """The former formula (A-perp + B-perp)-perp stays as the reference."""
        moduli = tuple(moduli)
        a = residue_matrix(_rows_over(data, moduli), moduli)
        b = residue_matrix(_rows_over(data, moduli), moduli)
        meet = intersect_rows(a, b)
        assert annihilator_rows(meet) == stack(annihilator_rows(a), annihilator_rows(b))
        assert meet == annihilator_rows(stack(annihilator_rows(a), annihilator_rows(b)))


class TestHeadKernel:
    @given(st.data(), MIXED_MODULI_WIDE, st.integers(0, 5))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_vanishing_head_read(self, data, moduli, head):
        """The vanishing-head tails are the canonical basis of the kernel,
        and head_solve finds a tail exactly for the heads of the span."""
        moduli = tuple(moduli)
        head = min(head, len(moduli))
        rows = _rows_over(data, moduli, max_rows=5)
        mat = residue_matrix(rows, moduli)
        kernel = head_kernel(mat, head)
        assert kernel == howell_form(kernel)
        span = enumerate_span(mat.rows, moduli)
        expected = {v[head:] for v in span if not any(v[:head])}
        assert enumerate_span(kernel.rows, moduli[head:]) == expected
        for v in sorted(span)[:4]:
            tail = head_solve(mat, head, v[:head])
            assert tail is not None and v[:head] + tail in span
        heads = {v[:head] for v in span}
        missing = next(
            (h for h in itertools.product(*[range(m) for m in moduli[:head]])
             if h not in heads),
            None,
        )
        if missing is not None:
            assert head_solve(mat, head, missing) is None


class TestQuotientInvariants:
    def test_quotient_by_zero(self):
        mat = residue_matrix([(1, 1)], (2, 3))
        assert quotient_invariants(mat, []) == (6,)

    def test_quotient_collapses(self):
        mat = residue_matrix([(1,)], (4,))
        assert quotient_invariants(mat, [(2,)]) == (2,)

    def test_quotient_of_even_weight(self):
        moduli = (2, 2, 2)
        full = residue_matrix([(1, 0, 0), (0, 1, 0), (0, 0, 1)], moduli)
        even = [(1, 1, 0), (0, 1, 1)]
        assert quotient_invariants(full, even) == (2,)




QUOTIENT_MODULI = (1, 2, 3, 4, 6, 8, 9, 12, 16, 27)


def quotient_cases(with_denominator):
    """(rows, moduli, denominator rows) over widths 0-6 of QUOTIENT_MODULI."""

    @st.composite
    def draw(draw):
        mods = tuple(draw(st.lists(st.sampled_from(QUOTIENT_MODULI), max_size=6)))
        row = st.tuples(*(st.integers(0, m - 1) for m in mods))
        rows = draw(st.lists(row, max_size=5))
        den = draw(st.lists(row, min_size=1, max_size=3)) if with_denominator else []
        return rows, mods, den

    return draw()


class TestCountedInvariants:
    """``quotient_invariants`` counts on Howell forms; the Smith route of
    ``kernel_references`` and the element counts of the oracle are its
    twins."""

    def test_exhaustive_corpus_against_smith(self, exhaustive_corpus):
        by_space = {}
        for code in exhaustive_corpus:
            by_space.setdefault(code.space, []).append(code)
        for codes in by_space.values():
            for code in codes:
                assert smith_invariants(code.basis) == smith_quotient_invariants(code.basis, [])
                # Every subgroup of the same ambient as a denominator.
                for den in codes:
                    got = quotient_invariants(code.basis, den.basis.rows)
                    assert got == smith_quotient_invariants(code.basis, den.basis.rows)

    def test_codes_read_their_own_howell_rows(self, exhaustive_corpus, mixed_corpus, monkeypatch):
        # invariant_factors_of_code, contains and coset_representative give
        # what smith_invariants and coset_reduce give on the code's basis,
        # and take no Howell form of that basis, which already is one.
        import sys

        from groupcodes.codes import BlockCode, invariant_factors_of_code

        canonical, seen = howell_form, []

        def spied(matrix):
            seen.append((matrix.moduli, matrix.rows))
            return canonical(matrix)

        rng = random.Random(2801)
        cases = []
        for code in exhaustive_corpus + mixed_corpus:
            moduli = code.space.flat_moduli
            words = [tuple(rng.randrange(m) for m in moduli) for _ in range(4)]
            words += rng.sample(list(code.words()), min(2, code.cardinality))
            expected = (
                smith_invariants(code.basis),
                [coset_reduce(code.basis, w) for w in words],
                [contains_vector(code.basis, w) for w in words],
            )
            cases.append((BlockCode.from_howell(code.space, code.basis.rows), words, expected))
        for name, bound in list(sys.modules.items()):
            if name.startswith("groupcodes") and getattr(bound, "howell_form", None) is canonical:
                monkeypatch.setattr(bound, "howell_form", spied)
        for code, words, expected in cases:
            seen.clear()
            got = (
                invariant_factors_of_code(code),
                [code.coset_representative(w) for w in words],
                [code.contains(w) for w in words],
            )
            assert got == expected
            assert (code.basis.moduli, code.basis.rows) not in seen
        assert any(any(contained) for _, _, (_, _, contained) in cases)

    @given(quotient_cases(with_denominator=False))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_random_subgroups_against_smith(self, case):
        rows, moduli, _ = case
        matrix = residue_matrix(rows, moduli)
        assert smith_invariants(matrix) == smith_quotient_invariants(matrix, [])

    @given(quotient_cases(with_denominator=True))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_random_quotients_against_smith(self, case):
        rows, moduli, den = case
        matrix = residue_matrix(rows, moduli)
        assert quotient_invariants(matrix, den) == smith_quotient_invariants(matrix, den)

    def test_enumerable_codes_against_oracle(self, exhaustive_corpus, random_corpus, mixed_corpus):
        from groupcodes.oracle import enumerate_code

        for code in exhaustive_corpus + random_corpus + mixed_corpus:
            expected = brute_smith_invariants(enumerate_code(code))
            assert smith_invariants(code.basis) == expected, code.basis

    def test_every_level_of_a_chain(self):
        # Z/27 + Z/9 + Z/3 over Z/27^3 (r_0, r_1, r_2 = 3, 2, 1), and the
        # same type with a 2-part (2, 4, 8) folded in over Z/216^3.
        chain = residue_matrix([(1, 0, 0), (0, 3, 0), (0, 0, 9)], (27, 27, 27))
        assert smith_invariants(chain) == (3, 9, 27)
        mixed = residue_matrix([(1, 0, 0), (0, 6, 0), (0, 0, 36)], (216, 216, 216))
        assert smith_invariants(mixed) == (6, 36, 216)
        # Quotients that drop one level and that drop everything.
        assert quotient_invariants(chain, [(9, 0, 0)]) == (3, 9, 9)
        assert quotient_invariants(chain, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == ()

    def test_modulus_one_and_empty(self):
        assert smith_invariants(residue_matrix([(0, 1, 0)], (1, 4, 1))) == (4,)
        assert smith_invariants(residue_matrix([(0,)], (1,))) == ()
        assert smith_invariants(residue_matrix([], ())) == ()
        assert quotient_invariants(residue_matrix([(1,)], (1,)), [(0,)]) == ()

    def test_no_smith_form_is_computed(self):
        assert smith_diagonalizers() == []
        matrix = residue_matrix([(2, 3, 1), (0, 6, 4)], (4, 9, 12))
        assert smith_invariants(matrix) == (3, 12)
        assert quotient_invariants(matrix, [(0, 0, 3)]) == (3, 6)
        assert quotient_invariants(matrix, [(2, 3, 1)]) == (3,)


def embedded_howell(rows, moduli):
    """The Howell kernel over one ring: embed column j into Z/L (L the lcm
    of the moduli) by scaling by L/m_j, take the Howell form over Z/L with
    pivots scaled by units of Z/L, and map the rows back.  The reference
    for ``howell_form``, which works in residue coordinates."""
    L = lcm(*moduli) if moduli else 1
    if L == 1:
        return ()

    def first_nonzero(row):
        return next((j for j, e in enumerate(row) if e), -1)

    def egcd(a, b):
        s0, s1, t0, t1 = 1, 0, 0, 1
        while b:
            q, r = divmod(a, b)
            a, b = b, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        return a, s0, t0

    def push_annihilator(row, pivot_value):
        c = L // gcd(L, pivot_value)
        w = [(c * e) % L for e in row]
        if any(w):
            stack.append(w)

    pivots = {}
    stack = [v for v in ([(e * (L // m)) % L for e, m in zip(r, moduli)] for r in rows) if any(v)]
    while stack:
        v = stack.pop()
        j = first_nonzero(v)
        while j >= 0:
            if j not in pivots:
                pivots[j] = v
                push_annihilator(v, v[j])
                break
            r = pivots[j]
            a, b = r[j], v[j]
            if b % a == 0:
                v = [(x - (b // a) * y) % L for x, y in zip(v, r)]
            else:
                g, s, t = egcd(a, b)
                new_r = [(s * x + t * y) % L for x, y in zip(r, v)]
                v = [(-(b // g) * x + (a // g) * y) % L for x, y in zip(r, v)]
                pivots[j] = new_r
                push_annihilator(new_r, g)
            j = first_nonzero(v)
    order = sorted(pivots)
    basis = []
    for j in order:
        row = pivots[j]
        d = gcd(row[j], L)
        cof = L // d
        u = 1 if cof == 1 else pow((row[j] // d) % cof, -1, cof)
        while gcd(u, L) != 1:
            u += cof
        basis.append([(u * e) % L for e in row])
    for idx, j in enumerate(order):
        d = basis[idx][j]
        for above in range(idx):
            q = basis[above][j] // d
            if q:
                basis[above] = [(x - q * y) % L for x, y in zip(basis[above], basis[idx])]
    return tuple(tuple(e // (L // m) for e, m in zip(row, moduli)) for row in basis)


class TestResidueCoordinates:
    """The Howell kernel in residue coordinates against the embedded one."""

    @given(st.data(), MIXED_MODULI, st.integers(0, 4))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_howell_form_equals_embedded_kernel(self, data, moduli, at):
        # At least one modulus-1 column, anywhere in the row.
        moduli = tuple(moduli[:at]) + (1,) + tuple(moduli[at:])
        rows = residue_matrix(_rows_over(data, moduli, max_rows=5), moduli)
        canon = howell_form(rows)
        assert canon.rows == embedded_howell(rows.rows, moduli)
        for vector in _rows_over(data, moduli, max_rows=2):
            reduced = residue_matrix([vector], moduli).rows[0]
            expected = embedded_howell(rows.rows + (reduced,), moduli) == canon.rows
            assert contains_vector(rows, vector) == expected

    def test_pivot_scaling_keeps_the_span(self):
        # The pivot 6 of Z/9 scales to 3 by u = 2, which is not a unit of
        # Z/4; the row 3·(6, 1) = (0, 3) in the span restores the Z/4 part.
        rows = residue_matrix([(6, 1)], (9, 4))
        assert howell_form(rows).rows == embedded_howell(rows.rows, (9, 4))
        assert span_cardinality(rows) == len(enumerate_span(rows.rows, (9, 4)))


class TestTrustedResults:
    """Matrices the library builds itself skip validation; each must still
    satisfy every check a direct ``ResidueMatrix(...)`` call makes."""

    @staticmethod
    def assert_valid(m):
        assert ResidueMatrix(m.moduli, m.rows) == m

    @given(st.data(), MIXED_MODULI)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_results_pass_validation(self, data, moduli):
        moduli = tuple(moduli)
        a = residue_matrix(_rows_over(data, moduli), moduli)
        b = residue_matrix(_rows_over(data, moduli), moduli)
        exponent = lcm(*moduli)
        results = [
            a,
            howell_form(a),
            stack(a, b),
            annihilator_rows(a),
            intersect_rows(a, b),
            homomorphism_kernel(a.rows, tuple(exponent for _ in a.rows), moduli),
        ]
        solution = solve_congruence_system(a, (0,) * len(moduli))
        results.append(solution.kernel)
        for m in results:
            self.assert_valid(m)

    def test_residue_matrix_reduces_every_entry(self):
        m = residue_matrix([(-1, 9, 13)], (4, 3, 1))
        assert m.rows == ((3, 0, 0),)
        self.assert_valid(m)

    def test_residue_matrix_rejects_bad_moduli(self):
        with pytest.raises(ValueError):
            residue_matrix([], (2, 0))


class TestWidthChecks:
    def test_residue_matrix_rejects_long_row(self):
        with pytest.raises(ValueError):
            residue_matrix([(1, 2, 3)], (4, 4))

    def test_residue_matrix_rejects_short_row(self):
        with pytest.raises(ValueError):
            residue_matrix([(1,)], (4, 4))

    def test_coset_reduce_rejects_wrong_width(self):
        m = residue_matrix([(1, 1, 0)], (2, 2, 2))
        for vector in [(0,), (1, 1, 0, 1)]:
            with pytest.raises(ValueError):
                coset_reduce(m, vector)
            with pytest.raises(ValueError):
                contains_vector(m, vector)

    def test_homomorphism_rejects_wrong_width_image(self):
        for images in ([(1, 0), (1,)], [(1, 0), (1, 0, 1)]):
            with pytest.raises(ValueError):
                homomorphism_kernel(images, (4, 4), (4, 4))
            with pytest.raises(ValueError):
                solve_homomorphism(images, (4, 4), (4, 4), (1, 0))

    def test_homomorphism_needs_one_image_per_unknown(self):
        # Too few images used to raise IndexError; too many dropped the
        # extra ones silently.
        for images in ([(1,)], [(1,), (2,), (3,)]):
            with pytest.raises(ValueError, match="unknowns"):
                homomorphism_kernel(images, (4, 4), (4,))
            with pytest.raises(ValueError, match="unknowns"):
                solve_homomorphism(images, (4, 4), (4,), (1,))

    def test_solve_homomorphism_rejects_wrong_width_target(self):
        with pytest.raises(ValueError):
            solve_homomorphism([(1,), (2,)], (4, 4), (4,), (1, 0))

    def test_quotient_rejects_wrong_width_denominator(self):
        m = residue_matrix([(1, 0), (0, 1)], (4, 4))
        with pytest.raises(ValueError):
            quotient_invariants(m, [(2, 0, 1)])


def generator_reduced(vector, moduli):
    """``_reduced`` as one generator expression over the zipped row."""
    if len(vector) != len(moduli):
        raise ValueError(f"width {len(vector)} != {len(moduli)} columns")
    return tuple(int(e) % m for e, m in zip(vector, moduli))


class TestReducedRow:
    """``_reduced``, the row reduction of ``residue_matrix``, against the
    generator expression it replaced."""

    MODULI = (2, 4, 9, 2**61 - 1, 1)

    def test_negative_bool_float_and_large_entries(self):
        rng = random.Random(5)
        rows = [
            (-1, -5, -18, -(2**70) - 3, -3),
            (True, False, True, True, False),
            (3.0, -1.0, 10.0, 2.0**62, 0.0),
            (2**80 + 3, 3**50, -(3**40), 2**65, 7),
            (0, 0, 0, 0, 0),
        ] + [tuple(rng.randrange(-(2**70), 2**70) for _ in self.MODULI) for _ in range(50)]
        for row in rows:
            got = _reduced(row, self.MODULI)
            assert got == generator_reduced(row, self.MODULI)
            assert all(type(e) is int for e in got)

    def test_width_mismatch(self):
        for row in [(1, 2), (1, 2, 3, 4, 5, 6)]:
            with pytest.raises(ValueError) as twin:
                generator_reduced(row, self.MODULI)
            with pytest.raises(ValueError, match=str(twin.value)):
                _reduced(row, self.MODULI)


class TestVectorOrder:
    def test_mixed_moduli(self):
        assert vector_order((2, 3), (4, 9)) == 6
        assert vector_order((0, 0), (4, 9)) == 1

    def test_empty_vector(self):
        assert vector_order((), ()) == 1


def one_shot(state, rows):
    """Push every row into the empty ``state`` at once, then finish."""
    state.push(rows)
    return state.finish()


def packed(rows, moduli):
    return one_shot(_HowellPacked(moduli), rows)


def single(rows, moduli):
    return one_shot(_HowellSingle(moduli), rows)


def two_power_matrices(max_width=24, max_rows=24, moduli=(1, 2, 4, 8)):
    """Rows over columns whose moduli are drawn from ``moduli``."""

    @st.composite
    def draw(draw):
        mods = tuple(draw(st.lists(st.sampled_from(moduli), max_size=max_width)))
        row = st.tuples(*(st.integers(0, m - 1) for m in mods))
        return draw(st.lists(row, max_size=max_rows)), mods

    return draw()


class TestPackedKernel:
    """The packed state ``_HowellPacked`` against the reference twin
    ``_HowellSingle``, each pushed every row at once."""

    def test_exhaustive_small_matrices(self):
        # Every sequence of at most two rows over every choice of at most
        # three column moduli from {1, 2, 4, 8} with at most 64 vectors
        # (zero rows, duplicate rows, width 0 and the empty matrix
        # included); over the larger width-3 groups, every row alone and
        # doubled.
        checked = 0
        for width in range(4):
            for moduli in itertools.product((1, 2, 4, 8), repeat=width):
                vectors = list(itertools.product(*(range(m) for m in moduli)))
                matrices = [()] + [(v,) for v in vectors]
                if len(vectors) <= 64:
                    matrices += list(itertools.product(vectors, repeat=2))
                else:
                    matrices += [(v, v) for v in vectors]
                for rows in matrices:
                    assert packed(rows, moduli) == single(rows, moduli)
                    checked += 1
        assert checked == 70129

    @given(two_power_matrices())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_random_matrices_up_to_24_wide(self, case):
        rows, moduli = case
        assert packed(rows, moduli) == single(rows, moduli)

    @given(two_power_matrices(moduli=(1, 2)))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_binary_matrices_up_to_24_wide(self, case):
        rows, moduli = case
        assert packed(rows, moduli) == single(rows, moduli)

    def test_known_forms(self):
        assert packed([(2, 1)], (4, 4)) == [(2, 1), (0, 2)]
        assert packed([(0, 1), (0, 1)], (1, 2)) == [(0, 1)]
        assert packed([], ()) == []
        assert packed([(), ()], ()) == []

    @pytest.mark.parametrize(
        "moduli, kernel",
        [
            ((), "packed"),
            ((1, 1), "packed"),
            ((2, 1, 2), "packed"),
            ((4, 2), "packed"),
            ((8,), "packed"),
            ((8, 1, 4, 2), "packed"),
            ((16,), "reference"),
            ((8, 16), "reference"),
            ((3,), "reference"),
            ((2, 3), "reference"),
            ((4, 6), "reference"),
            ((9, 3), "reference"),
            ((12, 8), "reference"),
        ],
    )
    def test_dispatch_by_moduli(self, moduli, kernel, monkeypatch):
        import groupcodes.linalg as module

        reached = []
        for name, label in (("_HowellSingle", "reference"), ("_HowellPacked", "packed")):
            original = getattr(module, name)

            def spy(*args, _original=original, _label=label):
                reached.append(_label)
                return _original(*args)

            monkeypatch.setattr(module, name, spy)
        rows = (tuple(m - 1 for m in moduli), tuple(m // 2 for m in moduli))
        module._howell_cached.cache_clear()
        canon = howell_form(residue_matrix(rows, moduli))
        assert reached == [kernel]
        assert list(canon.rows) == single(rows, moduli)
        assert _PACKED_MODULI.issuperset(moduli) == (kernel == "packed")

    def test_one_cache_entry_per_input(self):
        import groupcodes.linalg as module

        module._howell_cached.cache_clear()
        for moduli in ((4, 8), (4, 6)):
            matrix = residue_matrix([(1, 3), (2, 2)], moduli)
            assert howell_form(matrix) == howell_form(matrix)
        info = module._howell_cached.cache_info()
        assert (info.hits, info.misses, info.maxsize) == (2, 2, 1 << 12)


def assert_weak_howell(record, canon, moduli):
    """``record``, a state's ``record``, is a weak Howell form of the span
    whose Howell rows are ``canon``: echelon at its own pivot columns, each
    pivot normalized (it divides its modulus), the pivot columns and
    running pivot-order products of ``canon``'s record, and the Howell
    property, as its rows from each pivot on span what ``canon``'s do."""
    rows, columns, products = record
    assert (columns, products) == _entry(tuple(canon), moduli)[1:]
    assert tuple(map(_first_nonzero, rows)) == columns
    assert all(moduli[j] % row[j] == 0 for row, j in zip(rows, columns))
    for i in range(len(rows)):
        assert howell_form(_trusted(moduli, rows[i:])).rows == tuple(canon[i:])


class TestPushFinish:
    """A Howell state pushed rows in batches and finished after each batch
    gives ``howell_form`` of the rows pushed so far, on both kernels, and
    finishing leaves the state as it was.  Its unfinished ``record`` is a
    weak Howell form with the finished form's pivot columns and products,
    and reading it leaves the state as it was too.  A row that the pushes
    since the last record left alone (the same pivot object) is the same
    tuple object in the next record, and the rows a record keeps are the
    ones a state with nothing kept builds."""

    @staticmethod
    def check(state, rows, moduli, cuts):
        bounds = [0, *sorted(cuts), len(rows)]
        last = {}
        for lo, hi in zip(bounds, bounds[1:]):
            kept = dict(state.pivots)
            state.push(rows[lo:hi])
            alone = {key for key, row in state.pivots.items() if kept.get(key) is row}
            before = copy.deepcopy(state.pivots)
            got = state.finish()
            assert state.pivots == before
            assert got == list(howell_form(residue_matrix(rows[:hi], moduli)).rows)
            assert state.finish() == got
            record = state.record()
            assert state.pivots == before
            again = state.record()
            assert again == record and all(map(operator.is_, again[0], record[0]))
            assert_weak_howell(record, got, moduli)
            cold = type(state)(moduli)
            cold.pivots = dict(state.pivots)
            assert cold.record() == record
            rows_at = dict(zip(record[1], record[0]))
            for column in alone:
                assert rows_at[column] is last[column]
            last = rows_at

    @given(two_power_matrices(), st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_packed_moduli_on_both_kernels(self, case, data):
        rows, moduli = case
        cuts = data.draw(st.lists(st.integers(0, len(rows)), max_size=4))
        self.check(_HowellPacked(moduli), rows, moduli, cuts)
        self.check(_HowellSingle(moduli), rows, moduli, cuts)

    @given(
        st.lists(st.sampled_from([1, 3, 5, 6, 9, 12, 27]), max_size=8).map(tuple),
        st.data(),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_other_moduli_on_the_single_kernel(self, moduli, data):
        row = st.tuples(*(st.integers(0, m - 1) for m in moduli))
        rows = data.draw(st.lists(row, max_size=10))
        cuts = data.draw(st.lists(st.integers(0, len(rows)), max_size=4))
        self.check(_HowellSingle(moduli), rows, moduli, cuts)

    def test_one_row_at_a_time(self):
        rng = random.Random(2503)
        for moduli in ((4, 2, 8, 4), (8, 8, 8), (2, 2, 2, 2, 2), (9, 3, 6), (4, 6, 12)):
            rows = [tuple(rng.randrange(m) for m in moduli) for _ in range(8)]
            self.check(_howell_state(moduli), rows, moduli, range(len(rows)))


class TestTrim:
    """``trim`` projects a state's span onto the columns from a cut on, on
    both kernels: after the rows are pushed and trimmed at rising cuts,
    the record is a weak Howell form of the rows with their entries before
    the cut zeroed, a pivot row at or after the cut that the trim's push
    leaves alone keeps its record row (the same tuple object), and
    ``trim`` says whether it dropped a row."""

    @staticmethod
    def check(state, rows, moduli, cuts):
        state.push(rows)
        for cut in sorted(cuts):
            before = state.record()
            kept = {column: row for column, row in state.pivots.items() if column >= cut}
            assert state.trim(cut) == (len(kept) < len(before[1]))
            zeroed = [(0,) * cut + row[cut:] for row in rows]
            record = state.record()
            assert_weak_howell(record, howell_form(residue_matrix(zeroed, moduli)).rows, moduli)
            earlier, later = dict(zip(before[1], before[0])), dict(zip(record[1], record[0]))
            for column, row in kept.items():
                if state.pivots.get(column) is row:
                    assert later[column] is earlier[column]

    @given(two_power_matrices(max_width=12, max_rows=12), st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_packed_moduli_on_both_kernels(self, case, data):
        rows, moduli = case
        cuts = data.draw(st.lists(st.integers(0, len(moduli)), max_size=4))
        self.check(_HowellPacked(moduli), rows, moduli, cuts)
        self.check(_HowellSingle(moduli), rows, moduli, cuts)

    @given(
        st.lists(st.sampled_from([1, 3, 5, 6, 9, 12, 27]), max_size=8).map(tuple),
        st.data(),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_other_moduli_on_the_single_kernel(self, moduli, data):
        row = st.tuples(*(st.integers(0, m - 1) for m in moduli))
        rows = data.draw(st.lists(row, max_size=10))
        cuts = data.draw(st.lists(st.integers(0, len(moduli)), max_size=4))
        self.check(_HowellSingle(moduli), rows, moduli, cuts)


@pytest.mark.parametrize("workload", ["block-codes", "long-horizon"])
def test_block_reports_compute_no_smith_form(workload, monkeypatch, tmp_path):
    # analyze, dual and duality-check over a whole benchmark pool read every
    # invariant factor by counting: no module binds a Smith kernel to reach.
    # The counting is ``_counted_invariants``, on Howell rows the codes hold.
    import sys

    import groupcodes.linalg as module

    from . import report_digest

    assert smith_diagonalizers() == []
    quotients = []
    counted = module._counted_invariants

    def counting(*args):
        quotients.append(args)
        return counted(*args)

    for name, bound in list(sys.modules.items()):
        if name.startswith("groupcodes") and getattr(bound, "_counted_invariants", None) is counted:
            monkeypatch.setattr(bound, "_counted_invariants", counting)
    specs = report_digest.pool(workload, 7, None)
    for spec in specs:
        path = tmp_path / spec.name
        path.write_text(spec.text, encoding="utf-8")
        for command in ("analyze", "dual", "duality-check"):
            assert report_digest.report((command,), str(path)).startswith(b"(0, ")
    assert len(specs) > 100 and quotients


def test_each_integer_is_factored_once(monkeypatch, tmp_path):
    # analyze and decompose of huge_coprime.spec and of the whole seed-7
    # block-codes pool take every prime list from one cache: no integer is
    # factored twice.
    import functools
    from collections import Counter

    import groupcodes.linalg as module

    from . import report_digest
    from .test_cli import HUGE_COPRIME

    factored = Counter()
    factor = module._primes.__wrapped__

    @functools.lru_cache(maxsize=module._primes.cache_info().maxsize)
    def counting(n):
        factored[n] += 1
        return factor(n)

    monkeypatch.setattr(module, "_primes", counting)
    paths = [HUGE_COPRIME]
    for spec in report_digest.pool("block-codes", 7, None):
        paths.append(tmp_path / spec.name)
        paths[-1].write_text(spec.text, encoding="utf-8")
    for path in paths:
        for command in ("analyze", "decompose"):
            assert report_digest.report((command,), str(path)).startswith(b"(0, ")
    assert {1000000007, 998244353} <= set(factored)
    assert set(factored.values()) == {1}


def trial_division_primes(n):
    """The distinct primes of n by trial division by every d, ascending."""
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return tuple(primes + [n] if n > 1 else primes)


class TestSmallPrimeSieve:
    """``_sieve`` gives the primes trial division gives, below every bound."""

    @staticmethod
    def trial_division(n):
        return tuple(p for p in range(2, n) if trial_division_primes(p) == (p,))

    def test_trial_bound(self):
        assert _SMALL_PRIMES == self.trial_division(_TRIAL) == _sieve(_TRIAL)
        assert len(_SMALL_PRIMES) == 172 and _SMALL_PRIMES[-1] == 1021

    def test_every_bound_up_to_200(self):
        # Bounds 0, 1 and 2 hold no prime; squares of primes and their
        # neighbours cross the sieve's last step.
        for n in range(201):
            assert _sieve(n) == self.trial_division(n), n


class TestFactorization:
    """``_primes`` factors every modulus a spec can give, or refuses it."""

    factor = staticmethod(_primes.__wrapped__)

    def test_matches_trial_division(self):
        rng = random.Random(3002)
        # Products of two primes above the trial bound, 2^10, go to rho.
        numbers = list(range(1, 3000)) + [rng.randrange(1, 10**8) for _ in range(300)]
        numbers += [rng.randrange(1025, 10**4) * rng.randrange(1025, 10**4) for _ in range(100)]
        for n in numbers:
            assert self.factor(n) == trial_division_primes(n), n

    @pytest.mark.parametrize(
        "n, primes",
        [
            (10**18 + 3, (10**18 + 3,)),  # prime: Miller–Rabin
            (1000000007 * 998244353, (998244353, 1000000007)),  # rho
            (7 * 1000003**2, (7, 1000003)),  # perfect square
            (1031**5, (1031,)),  # fifth power
            (2**64 + 1, (274177, 67280421310721)),
            (3215031751, (151, 751, 28351)),  # strong pseudoprime to 2, 3, 5, 7
            (3825123056546413051, (149491, 747451, 34233211)),  # to bases up to 23
            (2**61 - 1, (2**61 - 1,)),
        ],
    )
    def test_large_moduli(self, n, primes):
        assert self.factor(n) == primes

    def test_unprovable_prime_raises(self):
        # 2^89 - 1 is prime, above the bound where bases up to 41 decide.
        with pytest.raises(ValueError, match="cannot prove"):
            self.factor(2**89 - 1)

    def test_rho_budget_raises(self, monkeypatch):
        import groupcodes.linalg as module

        monkeypatch.setattr(module, "_RHO_STEPS", 1 << 8)
        with pytest.raises(ValueError, match="cannot split"):
            self.factor(1000000007 * 998244353)


class TestListBuiltMatrix:
    def test_lists_are_stored_as_tuples(self):
        # A list-built matrix used to pass its checks and then make the
        # Howell cache raise TypeError: unhashable type: 'list'.
        matrix = ResidueMatrix([2, 2], ([1, 0],))
        assert matrix == ResidueMatrix((2, 2), ((1, 0),))
        assert hash(matrix) == hash(ResidueMatrix((2, 2), ((1, 0),)))
        assert howell_form(matrix).rows == ((1, 0),)
