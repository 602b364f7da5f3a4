"""Tests for sequence spaces and block code lattice operations."""

import itertools
import operator
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcodes.codes import (
    BlockCode,
    SequenceSpace,
    ambient_code,
    annihilator_order,
    code_from_generators,
    intersect,
    invariant_factors_of_code,
    join,
    window_annihilator,
    window_internal,
    window_order,
    window_projection,
    zero_code,
)
import groupcodes.codes as codes_module
from groupcodes.control import _window_solution
from groupcodes.groups import FiniteAbelianGroup
from groupcodes.linalg import (
    ResidueMatrix,
    _reduce_vector,
    annihilator_rows,
    head_kernel,
    howell_form,
    residue_matrix,
    vector_order,
)

from .conftest import BAND_SPEC_PATHS, band_code
from .kernel_references import FinishedPrefixTable, pivot_record
from .test_linalg import assert_weak_howell


def space(*symbol_moduli):
    return SequenceSpace(tuple(FiniteAbelianGroup(m) for m in symbol_moduli))


def words_of(code):
    return set(code.words())


def binary_space(n):
    return space(*[(2,)] * n)


@pytest.fixture
def even_weight():
    return code_from_generators(binary_space(3), [(1, 1, 0), (0, 1, 1)])


@pytest.fixture
def repetition():
    return code_from_generators(binary_space(3), [(1, 1, 1)])


class TestConstruction:
    def test_cyclic_span(self):
        code = code_from_generators(binary_space(2), [(1, 1)])
        assert words_of(code) == {(0, 0), (1, 1)}
        assert code.cardinality == 2

    def test_z4_generator(self):
        code = code_from_generators(space((4,), (4,)), [(2, 1)])
        assert code.cardinality == 4

    def test_empty_generators(self):
        code = code_from_generators(binary_space(2), [])
        assert code.cardinality == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            code_from_generators(binary_space(2), [(1, 1, 0)])

    def test_space_from_a_list(self):
        # A list-built space could not be hashed, and codes over it could
        # not be compared with those over the tuple-built one.
        G = FiniteAbelianGroup([2, 4])
        sp = SequenceSpace([G, G])
        assert sp == space((2, 4), (2, 4)) and hash(sp) == hash(space((2, 4), (2, 4)))
        code = code_from_generators(sp, [(1, 2, 0, 1)])
        assert code == code_from_generators(space((2, 4), (2, 4)), [(1, 2, 0, 1)])

    def test_membership_and_equality(self):
        a = code_from_generators(binary_space(3), [(1, 1, 0), (0, 1, 1)])
        b = code_from_generators(binary_space(3), [(1, 0, 1), (1, 1, 0)])
        assert a == b
        assert a.contains((1, 0, 1))
        assert not a.contains((1, 0, 0))


class TestSupport:
    @pytest.mark.parametrize(
        "word, window",
        [
            ((0, 0, 0, 0, 0), (0, 0)),
            ((1, 0, 0, 0, 0), (0, 1)),
            ((0, 0, 1, 0, 0), (1, 2)),
            ((0, 1, 0, 0, 3), (1, 4)),
        ],
    )
    def test_least_window_outside_which_the_word_vanishes(self, word, window):
        # Position 1 holds columns 1 and 2; position 2 is a modulus-1 column.
        sp = space((2,), (2, 4), (1,), (4,))
        assert sp.support(word) == window


class TestLattice:
    def test_distinct_lines_intersect_trivially(self):
        sp = binary_space(2)
        a = code_from_generators(sp, [(1, 0)])
        b = code_from_generators(sp, [(1, 1)])
        assert intersect(a, b).cardinality == 1
        assert join(a, b) == ambient_code(sp)

    def test_z4_intersection(self):
        # Enumerating the spans: <(2,0)> = {00, 20} meets <(1,1)> = the
        # diagonal only at the origin.
        sp = space((4,), (4,))
        a = code_from_generators(sp, [(2, 0)])
        b = code_from_generators(sp, [(1, 1)])
        assert words_of(intersect(a, b)) == {(0, 0)}
        # The diagonal against the doubled ambient meets in <(2,2)>.
        doubles = code_from_generators(sp, [(2, 0), (0, 2)])
        assert words_of(intersect(doubles, b)) == {(0, 0), (2, 2)}

    def test_product_cardinality_identity(self):
        rng = random.Random(53)
        sp = space((4,), (6,), (2,))
        for _ in range(40):
            a = code_from_generators(
                sp, [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)]
            )
            b = code_from_generators(
                sp, [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)]
            )
            meet = intersect(a, b)
            total = join(a, b)
            assert meet.cardinality * total.cardinality == a.cardinality * b.cardinality

    def test_modular_law_spot_checks(self):
        rng = random.Random(59)
        sp = space((2,), (4,), (2,))
        for _ in range(25):
            def rand_code():
                return code_from_generators(
                    sp,
                    [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)],
                )

            a, b, c = rand_code(), rand_code(), rand_code()
            if not a.is_subcode_of(c):
                c = join(a, c)
            # Modular law: a <= c implies a + (b meet c) = (a + b) meet c.
            lhs = join(a, intersect(b, c))
            rhs = intersect(join(a, b), c)
            assert lhs == rhs


class TestWindows:
    def test_projection_of_repetition(self, repetition):
        proj = window_projection(repetition, 0, 1)
        assert words_of(proj) == {(0,), (1,)}

    def test_identity_window(self, even_weight):
        assert window_projection(even_weight, 0, 3).basis.rows == even_weight.basis.rows

    def test_projection_of_zero_code(self):
        z = zero_code(binary_space(3))
        assert window_projection(z, 1, 3).cardinality == 1

    def test_internal_even_weight(self, even_weight):
        inner = window_internal(even_weight, 0, 2)
        assert words_of(inner) == {(0, 0, 0), (1, 1, 0)}

    def test_internal_full_window(self, even_weight):
        assert window_internal(even_weight, 0, 3) == even_weight

    def test_internal_repetition(self, repetition):
        inner = window_internal(repetition, 0, 2)
        assert words_of(inner) == {(0, 0, 0)}

    def test_bad_window(self, even_weight):
        with pytest.raises(ValueError):
            window_projection(even_weight, 2, 1)
        with pytest.raises(ValueError):
            window_internal(even_weight, 0, 4)

    def test_internal_contained_in_projection_pullback(self):
        rng = random.Random(61)
        sp = space((4,), (2,), (3,), (2,))
        for _ in range(25):
            code = code_from_generators(
                sp, [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)]
            )
            a, b = sorted(rng.sample(range(5), 2))
            if a == b:
                continue
            inner = window_internal(code, a, b)
            proj = window_projection(code, a, b)
            sl = sp.flat_slice(a, b)
            # Every internally supported word restricts into the projection.
            for w in inner.words():
                assert proj.contains(w[sl])

    def test_windows_match_enumeration(self):
        rng = random.Random(67)
        cases = []
        sp = space((2,), (4,), (2,))
        for _ in range(25):
            code = code_from_generators(
                sp, [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)]
            )
            a, b = sorted(rng.sample(range(4), 2))
            if a != b:
                cases.append((code, [(a, b)]))
        # Modulus-1 columns, mixed symbols, zero and full codes, and every
        # window, the edge windows [0, N) and [a, N) included.
        for symbols in [
            ((1,), (2,), (1,)),
            ((2, 4), (6,)),
            ((2, 4), (1,), (6,)),
            ((3,), (9, 3), (1, 2)),
        ]:
            sp = space(*symbols)
            N = sp.horizon
            windows = [(a, b) for a in range(N + 1) for b in range(a, N + 1)]
            cases += [(zero_code(sp), windows), (ambient_code(sp), windows)]
            for k in (1, 2, 2, 3):
                gens = [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(k)]
                cases.append((code_from_generators(sp, gens), windows))
        for code, windows in cases:
            words = words_of(code)
            for a, b in windows:
                sl = code.space.flat_slice(a, b)
                if a < b:
                    assert words_of(window_projection(code, a, b)) == {
                        w[sl] for w in words
                    }
                expected_internal = {
                    w for w in words if not any(w[: sl.start] + w[sl.stop :])
                }
                inner = window_internal(code, a, b)
                assert inner.basis == howell_form(inner.basis)
                assert words_of(inner) == expected_internal


class TestInvariantFactors:
    def test_even_weight(self, even_weight):
        assert invariant_factors_of_code(even_weight) == (2, 2)

    def test_cyclic_z4(self):
        code = code_from_generators(space((4,), (4,)), [(2, 1)])
        assert invariant_factors_of_code(code) == (4,)

    def test_zero_code(self):
        assert invariant_factors_of_code(zero_code(binary_space(2))) == ()

    def test_counted_once_and_kept_on_the_code(self, monkeypatch):
        calls = Counter()
        count = codes_module._counted_invariants

        def counted(canon, denominator_rows, order):
            calls[canon.rows] += 1
            return count(canon, denominator_rows, order)

        monkeypatch.setattr(codes_module, "_counted_invariants", counted)
        code = code_from_generators(space((4,), (2,), (4,)), [(1, 1, 2), (2, 0, 2)])
        factors = invariant_factors_of_code(code)
        assert invariant_factors_of_code(code) is factors is code.__dict__["_invariant_factors"]
        assert calls == Counter({code.basis.rows: 1})


class TestCanonicalByConstruction:
    @pytest.mark.parametrize(
        "symbols", [((2,),) * 3, ((1,), (2,), (1,)), ((2, 4), (1,), (6,)), ((3,), (9, 3), (1, 2))]
    )
    def test_unit_rows_are_the_ambient_howell_form(self, symbols):
        # ``ambient_code`` stores the unit rows as given: they must be the
        # Howell form a generic construction gives, with no Z/1 column.
        sp = space(*symbols)
        moduli = sp.flat_moduli
        units = [[int(k == j) for k in range(len(moduli))] for j in range(len(moduli))]
        amb = ambient_code(sp)
        assert amb.basis == howell_form(residue_matrix(units, moduli))
        assert amb == code_from_generators(sp, units)
        assert amb.cardinality == sp.cardinality

    def test_non_canonical_basis_is_canonicalized(self):
        sp = space((4,), (2,), (4,))
        rows = [(1, 1, 2), (3, 1, 0), (2, 0, 2)]
        basis = residue_matrix(rows, sp.flat_moduli)
        assert howell_form(basis) != basis
        code = BlockCode(sp, basis)
        assert code == code_from_generators(sp, rows)
        assert code.basis == howell_form(basis)

    def test_moduli_mismatch_still_rejected(self):
        with pytest.raises(ValueError):
            BlockCode(space((2,), (2,)), residue_matrix([(1, 1)], (2, 4)))


class TestWidthChecks:
    @pytest.mark.parametrize("generators", [[(1, 1, 1)], [(1, 1, 0), (0, 1, 1)]])
    def test_contains_rejects_wrong_width(self, generators):
        code = code_from_generators(space((2,), (2,), (2,)), generators)
        for word in [(0,), (1, 1, 0, 1)]:
            with pytest.raises(ValueError):
                code.contains(word)
            with pytest.raises(ValueError):
                code.coset_representative(word)


def reference_window_internal(code, a, b):
    """The codewords supported in [a, b): the vanishing-head read of the
    projection graph onto the coordinates outside the window."""
    sl = code.space.flat_slice(a, b)
    outside = [j for j in range(code.basis.width) if not sl.start <= j < sl.stop]
    head = tuple(code.basis.moduli[j] for j in outside)
    rows = tuple(tuple(row[j] for j in outside) + row for row in code.basis.rows)
    graph = ResidueMatrix(head + code.basis.moduli, rows)
    return BlockCode(code.space, head_kernel(graph, len(outside)))


class TestWindowTable:
    def test_window_internal_matches_projection_graph(self, mixed_corpus):
        for code in mixed_corpus:
            N = code.space.horizon
            for a in range(N + 1):
                for b in range(a, N + 1):
                    inner = window_internal(code, a, b)
                    assert inner.basis == reference_window_internal(code, a, b).basis
                    assert inner.basis == howell_form(inner.basis)

    def test_prefix_codes_are_built_once_and_on_demand(self, monkeypatch):
        sp = space((4,), (2,), (4,), (4,))
        code = code_from_generators(sp, [(1, 1, 2, 3), (2, 0, 1, 1), (0, 1, 3, 0)])
        windows = [(2, 4), (1, 3), (0, 3), (2, 3), (0, 2)]
        expected = {w: reference_window_internal(code, *w) for w in windows}
        calls = []
        canonical = codes_module.howell_form

        def counted(matrix):
            calls.append(matrix)
            return canonical(matrix)

        monkeypatch.setattr(codes_module, "howell_form", counted)
        # [a, N) reads the rows of the code itself.
        assert window_order(code, 2, 4) == expected[2, 4].cardinality
        assert not calls and "_prefixes" not in code.__dict__
        # One reversed Howell form; the sweep fills the ends up to 3 and
        # takes no Howell form per end.
        window_order(code, 1, 3)
        assert len(calls) == 1
        entries = code._prefixes.entries
        assert len(entries) == 4
        for a, b in windows:
            assert window_order(code, a, b) == expected[a, b].cardinality
        assert len(calls) == 1 and len(entries) == 4
        # Each window code is one Howell form of its entry's rows, the
        # same rows object on a second read, and no entry is filled again.
        got = {w: window_internal(code, *w) for w in windows}
        assert len(calls) == 1 + len(windows) and len(entries) == 4
        assert window_internal(code, 0, 3).basis.rows is window_internal(code, 0, 3).basis.rows
        assert got == expected

    @given(st.data())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_prefix_projection_truncates_howell_rows(self, mixed_corpus, data):
        # Joined with extra generators, so the rows vary beyond the corpus.
        code = data.draw(st.sampled_from(mixed_corpus))
        moduli = code.space.flat_moduli
        extra = data.draw(
            st.lists(st.tuples(*[st.integers(0, m - 1) for m in moduli]), max_size=2)
        )
        code = join(code, code_from_generators(code.space, extra))
        for b in range(1, code.space.horizon + 1):
            sub = code.space.window(0, b)
            cut = code.space.flat_slice(0, b).stop
            truncated = residue_matrix([row[:cut] for row in code.basis.rows], sub.flat_moduli)
            assert window_projection(code, 0, b).basis == howell_form(truncated)

    def test_is_subcode_of_matches_stacked_howell_form(self, mixed_corpus):
        # Reference: B contains A exactly when stacking A's rows under B's
        # leaves B's Howell form unchanged.
        by_space = {}
        for code in mixed_corpus:
            by_space.setdefault(code.space, []).append(code)
        for group in by_space.values():
            group += [window_internal(c, 0, c.space.horizon - 1) for c in group]
            for a in group:
                for b in group:
                    stacked = howell_form(
                        residue_matrix(b.basis.rows + a.basis.rows, b.basis.moduli)
                    )
                    assert a.is_subcode_of(b) == (stacked.rows == b.basis.rows)

    def test_cardinality_is_product_of_pivot_orders(self, mixed_corpus):
        for code in mixed_corpus:
            assert code.cardinality == len(set(code.words()))
            for (j, order), row in zip(code.pivots(), code.basis.rows):
                assert order == vector_order(row[j : j + 1], code.basis.moduli[j : j + 1])
                assert not any(row[:j]) and row[j]

    def test_is_subcode_of_matches_rowwise_containment(self, mixed_corpus):
        by_space = {}
        for code in mixed_corpus:
            by_space.setdefault(code.space, []).append(code)
        for group in by_space.values():
            group += [window_internal(c, 1, c.space.horizon) for c in group]
            for a in group:
                for b in group:
                    expected = all(b.contains(row) for row in a.basis.rows)
                    assert a.is_subcode_of(b) == expected


def reference_window_projection(code, a, b):
    """One Howell form of the code's rows sliced to [a, b)."""
    sub = code.space.window(a, b)
    sl = code.space.flat_slice(a, b)
    return BlockCode(sub, residue_matrix([row[sl] for row in code.basis.rows], sub.flat_moduli))


def reference_window_annihilator(code, a, b):
    """The local dual of the window's own projection, padded with zeros."""
    local = annihilator_rows(reference_window_projection(code, a, b).basis)
    sl = code.space.flat_slice(a, b)
    before, after = (0,) * sl.start, (0,) * (code.basis.width - sl.stop)
    return BlockCode.from_howell(code.space, (before + row + after for row in local.rows))


@st.composite
def mixed_codes(draw, menu=(1, 2, 3, 4, 6, 8, 9)):
    """Codes over 1-5 symbols of 1-2 components each, their moduli drawn
    from ``menu`` (modulus 1 included by default)."""
    moduli = st.sampled_from(menu)
    symbols = draw(
        st.lists(st.lists(moduli, min_size=1, max_size=2).map(tuple), min_size=1, max_size=5)
    )
    sp = space(*symbols)
    word = st.tuples(*[st.integers(0, m - 1) for m in sp.flat_moduli])
    return code_from_generators(sp, draw(st.lists(word, max_size=3)))


def assert_window_tables_match_reference(code):
    N = code.space.horizon
    for a in range(N):
        for b in range(a + 1, N + 1):
            proj = window_projection(code, a, b)
            assert proj.basis.rows == reference_window_projection(code, a, b).basis.rows
            ann = window_annihilator(code, a, b)
            assert ann.basis.rows == reference_window_annihilator(code, a, b).basis.rows
            assert annihilator_order(code, a, b) == ann.cardinality


def assert_prefix_annihilators_match_reference(code):
    """Every ``window_annihilator(code, 0, b)``, read in a shuffled order on a fresh
    code, against the local dual of the window [0, b)'s own projection,
    one kernel per window; an entry read late was filled by a sweep past
    it."""
    code = BlockCode.from_howell(code.space, code.basis.rows)
    N = code.space.horizon
    ends = list(range(N + 1))
    random.Random(N).shuffle(ends)
    for b in ends:
        expected = reference_window_annihilator(code, 0, b) if b else zero_code(code.space)
        assert window_annihilator(code, 0, b).basis.rows == expected.basis.rows, b


def assert_suffix_records_match_reference(code):
    """Every suffix record ``_suffix(a)``, read in a shuffled order on a
    fresh code, so a record read late was filled by a sweep past it,
    against proj_[a,N) C built as a code of its own, one Howell form per
    start.  The record keeps the space's columns: its rows vanish before
    offset(a), and cut to [a, N) they are a weak Howell form of the
    projection (``assert_weak_howell``: the reference's pivot columns,
    shifted by offset(a), and products exactly, and its Howell rows as the
    one Howell form of the record's rows from each pivot on).  The
    finished record (``_finished_suffix``) is the reference's pivot record
    exactly."""
    code = BlockCode.from_howell(code.space, code.basis.rows)
    N, offsets = code.space.horizon, code.space.offsets()
    starts = list(range(N))
    random.Random(N).shuffle(starts)
    for a in starts:
        lo = offsets[a]
        proj = reference_window_projection(code, a, N)
        rows, columns, products = code._suffix(a)
        assert not any(any(row[:lo]) for row in rows), a
        cut = (tuple(row[lo:] for row in rows), tuple(j - lo for j in columns), products)
        assert_weak_howell(cut, proj.basis.rows, proj.basis.moduli)
        assert code._finished_suffix(a) == pivot_record(proj.basis.rows, proj.basis.moduli), a


class TestWindowTablesTwin:
    """Projections cut from one suffix Howell form per start, annihilators
    read off the prefix table of the local dual, against the per-window
    route, row for row."""

    def test_mixed_corpus(self, mixed_corpus):
        for code in mixed_corpus:
            assert_window_tables_match_reference(code)

    def test_exhaustive_corpus(self, exhaustive_corpus):
        for code in exhaustive_corpus:
            assert_window_tables_match_reference(code)

    @pytest.mark.parametrize("path", BAND_SPEC_PATHS, ids=lambda p: p.stem)
    def test_band_specs(self, path):
        assert_window_tables_match_reference(band_code(path.name))

    @given(mixed_codes())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_mixed_moduli(self, code):
        assert_window_tables_match_reference(code)

    @given(mixed_codes(menu=(1, 2, 4, 8)))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_packed_moduli(self, code):
        # Every modulus a power of 2 up to 8: the local dual's prefix table
        # is filled by the packed Howell kernel.
        assert_window_tables_match_reference(code)

    def test_prefix_annihilators_in_shuffled_order(self, mixed_corpus):
        for code in mixed_corpus + [band_code(p.name) for p in BAND_SPEC_PATHS]:
            assert_prefix_annihilators_match_reference(code)

    def test_suffix_records_in_shuffled_order(self, mixed_corpus):
        for code in mixed_corpus + [band_code(p.name) for p in BAND_SPEC_PATHS]:
            assert_suffix_records_match_reference(code)


class TestSuffixSweep:
    """The suffix records, filled by one trimming sweep, against one Howell
    form of each suffix projection (``assert_suffix_records_match_reference``)."""

    def test_exhaustive_corpus(self, exhaustive_corpus):
        for code in exhaustive_corpus:
            assert_suffix_records_match_reference(code)

    @pytest.mark.parametrize(
        "menu", [(8,), (9,), (27,), (1, 2, 3, 4, 6, 8, 9)], ids=["Z8", "Z9", "Z27", "mixed"]
    )
    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_menus(self, menu, data):
        assert_suffix_records_match_reference(data.draw(mixed_codes(menu)))

    @pytest.mark.parametrize(
        "moduli, tap",
        [
            ((8,) * 24, (7, 1, 6)),
            ((9,) * 16, (3, 1)),
            ((27,) * 12, (3, 9, 1)),
            ((4, 6, 9, 12) * 3, (2, 3, 1)),
        ],
    )
    def test_long_band_codes(self, moduli, tap):
        # Many starts, on both kernels: Z/8 (packed), Z/9, Z/27 and mixed
        # moduli (single); every in-window shift of the tap.
        N = len(moduli)
        gens = [[0] * t + list(tap) + [0] * (N - len(tap) - t) for t in range(N - len(tap) + 1)]
        code = code_from_generators(space(*[(m,) for m in moduli]), gens)
        assert_suffix_records_match_reference(code)


def per_end_prefix(code, b):
    """C ∩ [0, b) as the prefix table built it before the sweep: one Howell
    form per end of the reversed Howell rows that vanish from offset(b) on,
    with its pivot columns and running pivot-order products."""
    head = code.basis.width - code.space.offsets()[b]
    rows = [row[::-1] for row in code._reversed_howell if not any(row[:head])]
    prefix = BlockCode(code.space, ResidueMatrix(code.basis.moduli, tuple(rows)))
    return pivot_record(prefix.basis.rows, prefix.basis.moduli)


def assert_sweep_matches_per_end_forms(code):
    """Every entry of the prefix table, and every one-sided read, against
    the per-end Howell form; the ends are read in a shuffled order on a
    fresh code, so an entry read late was filled by a sweep past it.  An
    entry is the sweep's unfinished record, a weak Howell form of the
    per-end form's span (``assert_weak_howell``); the window code of
    ``window_internal`` is the per-end form itself."""
    code = BlockCode.from_howell(code.space, code.basis.rows)
    N, moduli = code.space.horizon, code.basis.moduli
    ends = list(range(N + 1))
    random.Random(N).shuffle(ends)
    table = code._prefixes
    for b in ends:
        rows, columns, products = per_end_prefix(code, b)
        assert_weak_howell(code._prefix(b), rows, moduli)
        assert window_internal(code, 0, b).basis.rows == rows
        cut = code.space.offsets()[b]
        one_sided, order = table.vanishing(b)
        assert order == products[-1]
        if b:
            # Spanning rows of the window: their Howell form is the entry's
            # rows cut to [0, b), and reversed they are a Howell form.
            assert howell_form(ResidueMatrix(moduli[:cut], one_sided)).rows == tuple(
                row[:cut] for row in rows
            )
            reverse = ResidueMatrix(moduli[:cut][::-1], tuple(row[::-1] for row in one_sided))
            assert howell_form(reverse).rows == reverse.rows
        else:
            assert one_sided == ()


class TestPrefixSweep:
    """The prefix table, filled by one unfinished Howell sweep, against the
    per-end Howell forms it replaced: pivot columns, products, and the
    span of the rows from each pivot on."""

    def test_exhaustive_corpus(self, exhaustive_corpus):
        for code in exhaustive_corpus:
            assert_sweep_matches_per_end_forms(code)

    def test_mixed_corpus(self, mixed_corpus):
        for code in mixed_corpus:
            assert_sweep_matches_per_end_forms(code)

    @pytest.mark.parametrize("path", BAND_SPEC_PATHS, ids=lambda p: p.stem)
    def test_band_specs(self, path):
        assert_sweep_matches_per_end_forms(band_code(path.name))

    @given(mixed_codes((1, 2, 4, 8)))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_packed_moduli(self, code):
        assert_sweep_matches_per_end_forms(code)

    @given(mixed_codes((3, 5, 6, 9, 12, 27)))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_other_moduli(self, code):
        assert_sweep_matches_per_end_forms(code)

    def test_entries_are_filled_once(self, monkeypatch):
        # The table keeps one Howell state; every entry up to the end read
        # is filled by it, once, and no per-end Howell form is taken.
        code = band_code("z4_band10_code.spec")
        N = code.space.horizon
        calls = Counter()
        canonical = codes_module.howell_form

        def counted(matrix):
            calls["howell_form"] += 1
            return canonical(matrix)

        monkeypatch.setattr(codes_module, "howell_form", counted)
        window_order(code, 2, 5)
        assert calls["howell_form"] == 1  # the reversed Howell form
        entries = code._prefixes.entries
        assert len(entries) == 6
        filled = list(entries)
        for a in range(N):
            for b in range(a, N):
                window_order(code, a, b)
        assert calls["howell_form"] == 1
        assert entries[:6] == filled and len(entries) == N
        assert all(map(operator.is_, entries[:6], filled))


def assert_weak_entries_read_as_howell_forms(code):
    """The weak-form twin: every read the engine makes of a prefix entry,
    on a fresh code, against the same read of a finished table
    (``kernel_references.FinishedPrefixTable``, the per-end Howell forms).
    Each entry is a weak Howell form of its window (``assert_weak_howell``);
    every window order |C ∩ [a, b)| is equal; reducing a member of the
    window by the entry gives zero; reducing any word gives the canonical
    coset representative, the Howell form's; and ``_window_solution``
    gives the same word for every position, end and target symbol."""
    code = BlockCode.from_howell(code.space, code.basis.rows)
    finished = BlockCode.from_howell(code.space, code.basis.rows)
    finished.__dict__["_prefixes"] = FinishedPrefixTable(code.space, code._reversed_howell)
    N, moduli, offsets = code.space.horizon, code.basis.moduli, code.space.offsets()
    rng = random.Random(N)
    for b in range(N + 1):
        entry, canon = code._prefix(b), finished._prefix(b)
        assert_weak_howell(entry, canon[0], moduli)
        for a in range(b + 1):
            assert code._prefixes.order(a, b) == finished._prefixes.order(a, b)
        for _ in range(4):
            member = [0] * len(moduli)
            for row in canon[0]:
                c = rng.randrange(max(moduli))
                member = [(x + c * y) % m for x, y, m in zip(member, row, moduli)]
            assert not any(_reduce_vector(entry[0], entry[1], moduli, member))
            word = tuple(rng.randrange(m) for m in moduli)
            assert _reduce_vector(entry[0], entry[1], moduli, word) == _reduce_vector(
                canon[0], canon[1], moduli, word
            )
        for k in range(b):
            symbol = code.space.symbols[k].moduli
            targets = list(itertools.product(*map(range, symbol)))
            for target in targets if len(targets) <= 16 else rng.sample(targets, 16):
                got = _window_solution(code, b, k, target)
                assert got == _window_solution(finished, b, k, target), (k, b, target)
                if got is not None:
                    assert not any(got[: offsets[k]]) and not any(got[offsets[b] :])
                    assert got[offsets[k] : offsets[k + 1]] == target


class TestWeakEntriesTwin:
    """Prefix entries are unfinished records, weak Howell forms: every read
    of one gives what the finished per-end Howell form gives."""

    def test_exhaustive_corpus(self, exhaustive_corpus):
        for code in exhaustive_corpus:
            assert_weak_entries_read_as_howell_forms(code)

    def test_mixed_corpus(self, mixed_corpus):
        for code in mixed_corpus:
            assert_weak_entries_read_as_howell_forms(code)

    @pytest.mark.parametrize("path", BAND_SPEC_PATHS, ids=lambda p: p.stem)
    def test_band_specs(self, path):
        assert_weak_entries_read_as_howell_forms(band_code(path.name))

    @pytest.mark.parametrize(
        "menu", [(8,), (9,), (27,), (2, 3, 4, 6, 9, 12)], ids=["Z8", "Z9", "Z27", "mixed"]
    )
    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_menus(self, menu, data):
        assert_weak_entries_read_as_howell_forms(data.draw(mixed_codes(menu)))


class TestWindowBoundary:
    """Windows are checked where they enter the library, the five public
    window functions; the readers behind them check none."""

    WINDOW_FUNCTIONS = (
        window_projection,
        window_internal,
        window_annihilator,
        window_order,
        annihilator_order,
    )

    @pytest.mark.parametrize("read", WINDOW_FUNCTIONS, ids=lambda f: f.__name__)
    def test_bad_windows_raise(self, read):
        code = band_code("mixed_band8.spec")
        N = code.space.horizon
        for a, b in [(-1, 2), (-1, N), (3, 2), (N, N - 1), (0, N + 1), (2, N + 1)]:
            # Twice: a rejected window leaves nothing in a table.
            for _ in range(2):
                with pytest.raises(ValueError):
                    read(code, a, b)

    def test_bad_table_indices_raise(self):
        code = band_code("mixed_band8.spec")
        N = code.space.horizon
        for read, bad in [
            (lambda b: window_internal(code, 0, b), (-1, N + 1)),
            (lambda b: window_annihilator(code, 0, b), (-1, N + 1)),
            (lambda a: window_projection(code, a, N), (-1, N, N + 1)),
        ]:
            for index in bad + bad:
                with pytest.raises(ValueError):
                    read(index)

    def test_empty_window_annihilator_is_the_zero_code(self, mixed_corpus):
        for code in mixed_corpus + [band_code("z4_band10_code.spec")]:
            for a in range(code.space.horizon + 1):
                assert window_annihilator(code, a, a) == zero_code(code.space)

    def test_readers_check_no_window(self, monkeypatch):
        # A duality report reads its O(N^2) windows unchecked; only the
        # table misses check theirs, O(N) of them.
        from groupcodes.observe import check_control_observe_duality

        code = band_code("z4_band10_code.spec")
        calls = Counter()
        check = SequenceSpace.check_window

        def counted(self, a, b):
            calls["check_window"] += 1
            return check(self, a, b)

        monkeypatch.setattr(SequenceSpace, "check_window", counted)
        assert check_control_observe_duality(code).ok
        assert calls["check_window"] <= 5 * code.space.horizon


class TestWindowTableBuilds:
    """Reading every window of an N = 10 band code builds one kernel in all
    and takes no Howell form for any start's suffix record."""

    def test_one_kernel_per_code(self, monkeypatch):
        code = band_code("z4_band10_code.spec")
        N = code.space.horizon
        assert N == 10
        calls = Counter()
        kernel = codes_module.annihilator_rows

        def counted(matrix):
            calls["annihilator_rows"] += 1
            return kernel(matrix)

        monkeypatch.setattr(codes_module, "annihilator_rows", counted)
        for a in range(N):
            for b in range(a + 1, N + 1):
                window_annihilator(code, a, b)
        assert calls["annihilator_rows"] == 1

    def test_one_howell_form_per_start(self, monkeypatch):
        # The suffix records are one sweep's unfinished records: reading
        # the rows and order of every window projection takes no Howell
        # form, and the ``window_projection`` codes take one per start,
        # shared by all its ends (``_finished_suffix``).
        code = band_code("z4_band10_code.spec")
        N = code.space.horizon
        assert N == 10
        calls = Counter()
        canonical = codes_module.howell_form

        def counted(matrix):
            calls["howell_form"] += 1
            return canonical(matrix)

        monkeypatch.setattr(codes_module, "howell_form", counted)
        windows = [(a, b) for a in range(1, N) for b in range(a + 1, N + 1)]
        for a, b in windows:
            codes_module._projection(code, a, b), annihilator_order(code, a, b)
        assert calls["howell_form"] == 0
        for a, b in windows:
            window_projection(code, a, b)
        assert calls["howell_form"] == N - 1

    def test_one_pivot_record_per_basis(self, mixed_corpus, monkeypatch):
        # A fresh code's pivot record is found once, by ``linalg._entry``,
        # and read by its order, pivots, membership, invariant factors and
        # every window read; every other record is of another form.
        import sys

        import groupcodes.linalg as linalg_module

        calls = Counter()
        entry = linalg_module._entry

        def counted(rows, moduli):
            calls[rows, tuple(moduli)] += 1
            return entry(rows, moduli)

        for name, bound in list(sys.modules.items()):
            if name.startswith("groupcodes") and getattr(bound, "_entry", None) is entry:
                monkeypatch.setattr(bound, "_entry", counted)
        # A prefix C ∩ [0, b), b < N, that is C (every word vanishes from b
        # on, say on a trailing Z/1 symbol) is the code's own record.  Over
        # palindromic moduli a code may be its own column reversal, whose
        # record (the prefix table's) then has the same key: those are left
        # out.
        sources = [
            code
            for code in mixed_corpus + [band_code("z4_band10_code.spec")]
            if code.basis.moduli[::-1] != code.basis.moduli
            or code._reversed_howell != code.basis.rows
        ]
        whole = [c for c in sources if window_order(c, 0, c.space.horizon - 1) == c.cardinality]
        assert len(sources) - len(whole) > 10 and len(whole) >= 5
        rng = random.Random(3001)
        for source in sources:
            code = BlockCode.from_howell(source.space, source.basis.rows)
            N, moduli = code.space.horizon, code.basis.moduli
            calls.clear()
            code.cardinality, code.pivots(), invariant_factors_of_code(code)
            for _ in range(3):
                code.contains(tuple(rng.randrange(m) for m in moduli))
            for a in range(N + 1):
                for b in range(a, N + 1):
                    window_order(code, a, b), annihilator_order(code, a, b)
                    window_internal(code, a, b), window_annihilator(code, a, b)
                    if a < b:
                        window_projection(code, a, b)
            assert calls[code.basis.rows, moduli] == 1


def test_no_finish_inside_a_prefix_sweep(monkeypatch):
    # Every entry of a prefix table and every suffix record is a sweep's
    # unfinished read: no Howell state is finished while an entry is
    # filled.  Every prefix table has an owner code: the duality report's
    # dual control index reads D's own.  From a cold Howell cache, one
    # command on the N = 10 band code finishes only the canonical forms its
    # codes keep, compare or print: 3 for ``analyze``, 1 for ``decompose``
    # (the code's basis; the verification's one span is an unfinished
    # record) and 9 for ``duality-check``, whose climb of controllable
    # subcodes finishes its one state at the two gaps that take new rows
    # (9 and 2 for ``analyze`` and ``decompose`` when the order split's
    # scaled windows and the directness span were Howell forms; 10 for
    # ``duality-check`` when each gap up to the top was a Howell form of
    # its stacked rows; 25, 27 and 35 when every prefix end and every peel
    # step's window was finished, 18, 19 and 28 when each suffix record
    # was a Howell form of its own, and 19 for ``decompose`` when each
    # peel step took two Howell forms).
    import io
    from contextlib import redirect_stdout

    import groupcodes.linalg as linalg_module
    from groupcodes.cli import main

    from .conftest import BAND_SPECS

    counts = Counter()
    filling = []
    entry, table_init = codes_module._Sweep.entry, codes_module._PrefixTable.__init__

    def counted_entry(table, b):
        filling.append(table)
        try:
            return entry(table, b)
        finally:
            filling.pop()

    owned = codes_module.BlockCode.__dict__["_prefixes"]
    own_table = owned.fn

    def counted_table(table, space, reversed_rows):
        counts["tables"] += 1
        table_init(table, space, reversed_rows)

    def counted_own_table(code):
        counts["tables with owner"] += 1
        return own_table(code)

    for state in (linalg_module._HowellSingle, linalg_module._HowellPacked):

        def counted_finish(self, _finish=state.finish):
            counts["finish in a sweep" if filling else "finish"] += 1
            return _finish(self)

        monkeypatch.setattr(state, "finish", counted_finish)
    monkeypatch.setattr(codes_module._Sweep, "entry", counted_entry)
    monkeypatch.setattr(codes_module._PrefixTable, "__init__", counted_table)
    monkeypatch.setattr(owned, "fn", counted_own_table)
    finishes = {}
    for command in ("analyze", "decompose", "duality-check"):
        counts["finish"] = 0
        linalg_module._howell_cached.cache_clear()
        with redirect_stdout(io.StringIO()):
            assert main([command, str(BAND_SPECS / "z4_band10_code.spec")]) == 0
        finishes[command] = counts["finish"]
    assert finishes == {"analyze": 3, "decompose": 1, "duality-check": 9}
    assert counts["tables"] == counts["tables with owner"] > 0
    assert counts["finish in a sweep"] == 0


class TestCachedDescriptor:
    """``codes._cached``: computed once per instance into ``__dict__``."""

    def test_computes_once_per_instance(self):
        calls = Counter()

        class Holder:
            @codes_module._cached
            def value(self):
                calls[id(self)] += 1
                return len(calls)

        first, second = Holder(), Holder()
        assert first.value == first.value == 1
        assert second.value == second.value == 2
        assert calls == Counter({id(first): 1, id(second): 1})
        assert first.__dict__ == {"value": 1}

    def test_class_access_returns_the_descriptor(self):
        descriptor = BlockCode.__dict__["_record"]
        assert isinstance(descriptor, codes_module._cached)
        assert BlockCode._record is descriptor
        assert descriptor.name == "_record"
        assert not hasattr(descriptor, "__set__")

    def test_preseeded_entry_is_returned_untouched(self):
        code = code_from_generators(space((4,), (4,)), [(1, 2)])
        seeded = ((7, 7),)
        code.__dict__["_record"] = seeded
        assert code._record is seeded
        assert code.__dict__["_record"] is seeded

    def test_dataclass_equality_and_hash_unchanged(self):
        sp = space((2,), (4,), (2, 2))
        a = code_from_generators(sp, [(1, 2, 1, 0), (0, 1, 0, 1)])
        b = code_from_generators(sp, [(1, 2, 1, 0), (0, 1, 0, 1)])
        before = hash(a)
        a.pivots(), window_internal(a, 0, 1), window_projection(a, 1, 3), sp.flat_moduli
        assert set(a.__dict__) > {"space", "basis"}
        assert a == b and hash(a) == hash(b) == before
        assert SequenceSpace(sp.symbols) == sp
        assert hash(SequenceSpace(sp.symbols)) == hash(sp)
