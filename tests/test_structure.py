"""Tests for rectangularity and cyclic product decompositions."""

import random
from collections import Counter
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcodes.codes import (
    BlockCode,
    SequenceSpace,
    code_from_generators,
    intersect,
    join,
    window_internal,
    window_projection,
    zero_code,
)
from groupcodes.groups import (
    FiniteAbelianGroup,
    GroupElement,
    prime_factors,
    primary_decomposition,
    primary_part,
)
from groupcodes.linalg import (
    _reduce_vector,
    howell_form,
    residue_matrix,
    smith_invariants,
    vector_order,
)
from groupcodes.structure import (
    Decomposition,
    DecompositionError,
    DecompositionGenerator,
    _max_order_in_smallest_window,
    _peel_complement,
    _primary_state,
    _row_orders,
    _smallest_full_prefix,
    coprime_rectangular,
    cyclic_product_decomposition,
    is_subdirect_product,
    verify_decomposition,
)

from .conftest import BAND_SPEC_PATHS, band_code
from .kernel_references import (
    code_peel_decomposition,
    graph_splitting_character,
    integer_smith_diagonal,
    meet_peel_complement,
    stepwise_directness,
)
from .test_codes import mixed_codes
from .test_golden_cli import SPECS
from .test_linalg import enumerate_span
from .test_observe import shifted_taps


def space(*symbol_moduli):
    return SequenceSpace(tuple(FiniteAbelianGroup(m) for m in symbol_moduli))


def binary_space(n):
    return space(*[(2,)] * n)


def forward_code(sp, reversed_rows):
    """The code of ``sp`` spanned by column-reversed rows, re-reversed."""
    return code_from_generators(sp, [row[::-1] for row in reversed_rows])


def peel_steps(sp, state, p):
    """(record, word, order) of every peel step of the p-group held in
    ``state`` as column-reversed rows over ``sp``, by the peel's helpers;
    each record is checked to be a weak Howell form."""
    moduli, offsets, kept = sp.flat_moduli, sp.offsets(), {}
    record = state.record()
    while record[0]:
        assert_weak_howell(record, moduli[::-1])
        word, order = _max_order_in_smallest_window(
            record, _row_orders(record, moduli, kept), moduli, offsets, p
        )
        yield record, word, order
        _peel_complement(state, record, moduli, word, order)
        record = state.record()


def assert_weak_howell(record, moduli):
    """``record`` is a weak Howell form over ``moduli``: each row vanishes
    before its pivot column, the columns increase, each pivot divides its
    modulus, the products are the running pivot orders, and the multiple
    of each row that clears its pivot reduces to zero by the rows after
    it (the Howell property)."""
    rows, columns, products = record
    assert list(columns) == sorted(set(columns)) and len(columns) == len(rows)
    assert products[0] == 1 and len(products) == len(rows) + 1
    for i, (row, j) in enumerate(zip(rows, columns)):
        assert not any(row[:j]) and row[j] and moduli[j] % row[j] == 0
        c = moduli[j] // row[j]
        assert products[i + 1] == products[i] * c
        cleared = tuple(c * e % m for e, m in zip(row, moduli))
        assert not any(_reduce_vector(rows[i + 1 :], columns[i + 1 :], moduli, cleared))


@pytest.fixture
def even_weight():
    return code_from_generators(binary_space(3), [(1, 1, 0), (0, 1, 1)])


def brute_direct_sum_size(code, decomposition):
    """|sum of cyclic factors| by closure, for independent verification."""
    moduli = code.space.flat_moduli
    return len(
        enumerate_span([g.word for g in decomposition.generators], moduli)
    )


class TestCoprimeRectangular:
    def test_z2_z3_diagonal(self):
        sp = space((2,), (3,))
        code = code_from_generators(sp, [(1, 1)])
        decomposition = coprime_rectangular(code)
        assert decomposition is not None
        assert code.cardinality == 6
        assert decomposition.order_product == 6
        ok, _ = verify_decomposition(code, decomposition)
        assert ok

    def test_single_factor(self):
        sp = space((4,))
        code = code_from_generators(sp, [(2,)])
        decomposition = coprime_rectangular(code)
        assert decomposition is not None
        assert [g.word for g in decomposition.generators] == [(2,)]

    def test_not_applicable_for_shared_prime(self):
        sp = binary_space(2)
        code = code_from_generators(sp, [(1, 1)])
        assert coprime_rectangular(code) is None
        # Indeed the product of the projections is strictly larger.
        from groupcodes.codes import window_projection

        p0 = window_projection(code, 0, 1).cardinality
        p1 = window_projection(code, 1, 2).cardinality
        assert p0 * p1 == 4 != code.cardinality

    def test_random_coprime_codes(self):
        rng = random.Random(103)
        palettes = [(2,), (3,), (5,), (4,), (9,), (7,)]
        for _ in range(30):
            chosen = rng.sample(palettes, rng.randint(2, 3))
            # Keep symbol orders pairwise coprime.
            seen = set()
            symbols = []
            for mods in chosen:
                p = mods[0]
                base = 2 if p % 2 == 0 else (3 if p % 3 == 0 else p)
                if base in seen:
                    continue
                seen.add(base)
                symbols.append(mods)
            sp = space(*symbols)
            code = code_from_generators(
                sp,
                [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)],
            )
            decomposition = coprime_rectangular(code)
            assert decomposition is not None
            assert decomposition.order_product == code.cardinality
            assert brute_direct_sum_size(code, decomposition) == code.cardinality


# Criterion 6's palettes plus symbols of composite order, keyed by the
# primes of the symbol order.
COPRIME_PALETTES = {
    (2,): {2}, (4,): {2}, (8,): {2}, (2, 2): {2},
    (3,): {3}, (9,): {3}, (3, 3): {3},
    (5,): {5}, (7,): {7},
    (6,): {2, 3}, (12,): {2, 3}, (35,): {5, 7},
}


def coprime_codes(count, seed):
    """Random codes over symbols of pairwise coprime orders."""
    rng = random.Random(seed)
    palettes = sorted(COPRIME_PALETTES)
    codes = []
    while len(codes) < count:
        picks = rng.sample(palettes, rng.randint(1, 3))
        primes = [COPRIME_PALETTES[p] for p in picks]
        if sum(map(len, primes)) != len(set().union(*primes)):
            continue
        sp = space(*picks)
        gens = [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(rng.randint(1, 2))]
        codes.append(code_from_generators(sp, gens))
    return codes


class TestCoprimeRouteTwin:
    """The coprime route against the Smith route it replaced: per
    coordinate, the factor orders regroup (Smith diagonal of their diagonal
    matrix) to the invariant factors of the coordinate's projection, and
    the factors are a cyclic basis of that projection."""

    @staticmethod
    def by_coordinate(code, decomposition):
        per = {i: [] for i in range(code.space.horizon)}
        for g in decomposition.generators:
            per[g.start].append(g)
        return per

    def test_factor_orders_regroup_to_the_projection_invariants(self):
        regrouped = 0
        for code in coprime_codes(120, 2601):
            decomposition = coprime_rectangular(code)
            assert decomposition is not None
            moduli = code.space.flat_moduli
            starts = [g.start for g in decomposition.generators]
            assert starts == sorted(starts)
            for i, gens in self.by_coordinate(code, decomposition).items():
                proj = window_projection(code, i, i + 1)
                sl = code.space.flat_slice(i, i + 1)
                orders = [g.order for g in gens]
                invariants = smith_invariants(proj.basis)
                diag = integer_smith_diagonal(
                    [[o if r == c else 0 for c in range(len(orders))] for r, o in enumerate(orders)]
                )
                assert tuple(d for d in diag if d != 1) == invariants
                for g in gens:
                    assert code.contains(g.word)
                    assert vector_order(g.word, moduli) == g.order
                    assert (g.start, g.stop) == (i, i + 1) and g.prime is None
                    assert code.space.support(g.word) == (i, i + 1)
                # Span and directness: the factors, read on coordinate i,
                # span the projection, of order the product of theirs.
                words = [g.word[sl] for g in gens]
                span = enumerate_span(words, proj.space.flat_moduli)
                assert span == set(proj.words())
                assert len(span) == prod(orders)
                # A projection of mixed-prime order has more factors than
                # invariant factors.
                regrouped += len(orders) > len(invariants)
        assert regrouped > 10

    def test_one_peel_and_no_projection_code(self, monkeypatch):
        # The factors come from the code's own peel, run once per call;
        # no one-symbol projection is built.
        import groupcodes.codes as codes
        import groupcodes.structure as structure

        peels = []
        original = structure._peel

        def counted(code):
            peels.append(code)
            return original(code)

        def refused(*args):
            raise AssertionError("coprime_rectangular built a projection code")

        monkeypatch.setattr(structure, "_peel", counted)
        monkeypatch.setattr(codes, "window_projection", refused)
        monkeypatch.setattr(structure, "window_projection", refused, raising=False)
        corpus = coprime_codes(40, 3701)
        for code in corpus:
            decomposition = coprime_rectangular(code)
            assert decomposition.certificate.ok
            assert peels[-1] is code
        assert len(peels) == len(corpus)

    def test_mixed_prime_coordinates_give_primary_factors(self):
        code = code_from_generators(space((12,), (35,)), [(2, 5)])
        decomposition = coprime_rectangular(code)
        per = self.by_coordinate(code, decomposition)
        assert sorted(g.order for g in per[0]) == [2, 3]
        assert [g.order for g in per[1]] == [7]
        assert decomposition.order_product == code.cardinality == 42


class TestCyclicProductDecomposition:
    def test_even_weight_golden(self, even_weight):
        decomposition = cyclic_product_decomposition(even_weight)
        gens = decomposition.generators
        assert [g.word for g in gens] == [(1, 1, 0), (0, 1, 1)]
        assert [(g.start, g.stop) for g in gens] == [(0, 2), (1, 3)]
        assert decomposition.order_product == 4 == even_weight.cardinality
        ok, cert = verify_decomposition(even_weight, decomposition)
        assert ok, cert.render()

    def test_cyclic_code_is_single_generator(self):
        sp = binary_space(2)
        code = code_from_generators(sp, [(1, 1)])
        decomposition = cyclic_product_decomposition(code)
        assert [g.word for g in decomposition.generators] == [(1, 1)]
        assert decomposition.generators[0].start == 0
        assert decomposition.generators[0].stop == 2

    def test_z6_diagonal_splits_by_primes(self):
        sp = space((6,), (6,))
        code = code_from_generators(sp, [(1, 1)])
        decomposition = cyclic_product_decomposition(code)
        primes = sorted(g.prime for g in decomposition.generators)
        assert primes == [2, 3]
        orders = sorted(g.order for g in decomposition.generators)
        assert orders == [2, 3]
        assert decomposition.order_product == 6 == code.cardinality
        ok, _ = verify_decomposition(code, decomposition)
        assert ok

    def test_random_codes_decompose(self):
        rng = random.Random(107)
        for _ in range(25):
            sp = space(
                *[(rng.choice([2, 3, 4, 6]),) for _ in range(rng.randint(2, 4))]
            )
            code = code_from_generators(
                sp,
                [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)],
            )
            decomposition = cyclic_product_decomposition(code)
            ok, cert = verify_decomposition(code, decomposition)
            assert ok, cert.render()
            assert decomposition.order_product == code.cardinality
            assert brute_direct_sum_size(code, decomposition) == code.cardinality

    def test_a_peel_that_does_not_shrink_raises(self, monkeypatch):
        # A complement that keeps the part's order would spin the peel
        # loop; the order check turns it into an error.  The stub stops
        # after 50 calls, so a missing check fails instead of hanging.
        import groupcodes.structure as module

        calls = []

        def stuck(state, record, moduli, word, order):
            calls.append(order)
            if len(calls) > 50:
                raise AssertionError("the peel loop kept going")

        monkeypatch.setattr(module, "_peel_complement", stuck)
        code = code_from_generators(space((4,), (2,), (9,)), [(1, 1, 3), (2, 0, 1)])
        with pytest.raises(DecompositionError, match="complement of order"):
            cyclic_product_decomposition(code)
        assert len(calls) == 1

    def test_generator_orders_refine_invariant_factors(self):
        # Regrouping the per-prime generator orders by Smith normalization
        # recovers the isomorphism type of the code.
        from groupcodes.codes import invariant_factors_of_code

        rng = random.Random(109)
        for _ in range(15):
            sp = space(*[(rng.choice([2, 4, 6, 9]),) for _ in range(3)])
            code = code_from_generators(
                sp,
                [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)],
            )
            decomposition = cyclic_product_decomposition(code)
            diag = integer_smith_diagonal(
                [
                    [g.order if i == j else 0 for i in range(len(decomposition.generators))]
                    for j, g in enumerate(decomposition.generators)
                ]
            )
            factors = tuple(sorted(d for d in diag if d > 1))
            assert factors == tuple(sorted(invariant_factors_of_code(code)))


def least_max_order_word(current):
    """The first prefix window holding a word of the code's largest order,
    and its least such word, by enumerating the window."""
    moduli = current.space.flat_moduli
    exponent = max(vector_order(w, moduli) for w in current.words())
    for n in range(1, current.space.horizon + 1):
        inner = window_internal(current, 0, n)
        candidates = [w for w in inner.words() if vector_order(w, moduli) == exponent]
        if candidates:
            return min(candidates), exponent


class TestGeneratorChoice:
    def test_least_max_order_word_of_each_window(self):
        # Every window the peeling visits, over p-primary symbols; each
        # complement's rows are its canonical reversed Howell form.
        rng = random.Random(127)
        palettes = {2: [(2,), (4,), (8,), (2, 4)], 3: [(3,), (9,), (3, 3)]}
        windows = 0
        for _ in range(80):
            p = rng.choice([2, 3])
            sp = space(*[rng.choice(palettes[p]) for _ in range(rng.randint(2, 4))])
            gens = [
                [rng.randrange(m) for m in sp.flat_moduli]
                for _ in range(rng.randint(1, 3))
            ]
            start = code_from_generators(sp, gens)
            for record, word, order in peel_steps(sp, _primary_state(start, p)[0], p):
                current = forward_code(sp, record[0])
                assert howell_form(residue_matrix(record[0], sp.flat_moduli[::-1])).rows == (
                    current._reversed_howell
                )
                assert (word, order) == least_max_order_word(current)
                windows += 1
        assert windows >= 100

    def test_decomposition_enumerates_nothing(self, monkeypatch):
        rng = random.Random(131)
        codes = []
        for _ in range(10):
            sp = space(*[(rng.choice([2, 4, 6, 9]),) for _ in range(3)])
            gens = [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)]
            codes.append(code_from_generators(sp, gens))

        def no_enumeration(self):
            raise AssertionError("the decomposition enumerated a code")

        monkeypatch.setattr(BlockCode, "words", no_enumeration)
        for code in codes:
            decomposition = cyclic_product_decomposition(code)
            assert decomposition.certificate.ok
            assert decomposition.order_product == code.cardinality


def exponent_of(code):
    return lcm(*(vector_order(row, code.basis.moduli) for row in code.basis.rows))


def prefix_code_search(current):
    """The least n with exp(C ∩ [0, n)) = exp(C), by building C ∩ [0, n)
    for n = 1, 2, ... and reading each one's exponent off its rows."""
    for n in range(1, current.space.horizon + 1):
        if exponent_of(window_internal(current, 0, n)) == exponent_of(current):
            return n


class TestSmallestFullPrefix:
    def test_matches_prefix_code_search(self, exhaustive_corpus, monkeypatch):
        # Every window the peeling visits in every primary part of every
        # code of the exhaustive corpus: the window is the old search's,
        # read off the reversed rows with no prefix table built.
        import groupcodes.codes as codes_module

        def no_table(self, *args):
            raise AssertionError("a prefix table in the window search")

        visits = {"inside": 0, "whole": 0}
        for code in exhaustive_corpus:
            sp, offsets = code.space, code.space.offsets()
            for p in FiniteAbelianGroup(sp.flat_moduli).primes():
                state, columns = _primary_state(code, p)
                moduli = tuple(q for q, _ in columns)
                part = space(*sp.split(moduli))
                record, kept = state.record(), {}
                while record[0]:
                    with monkeypatch.context() as patch:
                        patch.setattr(codes_module._PrefixTable, "__init__", no_table)
                        orders = _row_orders(record, moduli, kept)
                        n, exponent = _smallest_full_prefix(record, orders, moduli, offsets)
                        word, order = _max_order_in_smallest_window(
                            record, orders, moduli, offsets, p
                        )
                    current = forward_code(part, record[0])
                    assert orders == tuple(vector_order(row, moduli[::-1]) for row in record[0])
                    assert n == prefix_code_search(current)
                    assert order == exponent == exponent_of(current)
                    assert current.space.support(word)[1] <= n
                    visits["whole" if n == current.space.horizon else "inside"] += 1
                    _peel_complement(state, record, moduli, word, order)
                    record = state.record()
        assert visits["inside"] > 100 and visits["whole"] > 100

    def test_each_peel_step_takes_no_howell_form_and_one_window_record(self, monkeypatch):
        # Over banded 2- and 3-groups of horizon 6 the searched window sits
        # anywhere.  Each p-part is one Howell state, seeded by one push
        # and read by one record per step; each peel step replaces the
        # rows its character meets in that state (one push) and pushes the
        # window's rows into one state of its own, read once.  No Howell
        # form and no finish is taken inside the peel, and no prefix table
        # and no code is built before the verification.  The verification
        # reads the directness span as one record of its own, apart from
        # the peel's part states, once per code of two or more generators;
        # it finishes no state and builds no code.
        import sys

        import groupcodes.codes as codes_module
        import groupcodes.linalg as linalg_module
        import groupcodes.structure as module

        rng = random.Random(1709)
        counts = Counter()
        phase = {"peel": False, "search": False, "span": False}

        class CountedState:
            def __init__(self, state, kind):
                self.state, self.kind = state, kind
                counts[kind + " states"] += 1

            def push(self, rows):
                counts[self.kind + " pushes"] += 1
                self.state.push(rows)

            def replace(self, columns, rows):
                counts[self.kind + " pushes"] += 1
                self.state.replace(columns, rows)

            def record(self):
                counts[self.kind + " records"] += 1
                return self.state.record()

        def counted_state(moduli, _state=module._howell_state):
            return CountedState(_state(moduli), "window" if phase["search"] else "part")

        def counted_search(*args, _search=module._max_order_in_smallest_window):
            counts["steps"] += 1
            phase["search"] = True
            try:
                return _search(*args)
            finally:
                phase["search"] = False

        def counted_peel(code, _peel=module._peel):
            counts["parts"] += len(FiniteAbelianGroup(code.space.flat_moduli).primes())
            phase["peel"] = True
            try:
                return _peel(code)
            finally:
                phase["peel"] = False

        def counted_howell(matrix, _howell=linalg_module.howell_form):
            counts["howell forms"] += phase["peel"]
            return _howell(matrix)

        def no_table(self, *args):
            raise AssertionError("a prefix table in the decomposition")

        def no_code(*args):
            raise AssertionError("a code built in the peel")

        monkeypatch.setattr(module, "_howell_state", counted_state)
        monkeypatch.setattr(module, "_max_order_in_smallest_window", counted_search)
        monkeypatch.setattr(module, "_peel", counted_peel)
        for name, mod in list(sys.modules.items()):
            if name.startswith("groupcodes") and getattr(mod, "howell_form", None) is (
                linalg_module.howell_form
            ):
                monkeypatch.setattr(mod, "howell_form", counted_howell)
        codes = []
        for _ in range(30):
            p = rng.choice([2, 3])
            sp = space(*[(p ** rng.randint(1, 3),) for _ in range(6)])
            gens = []
            for _ in range(rng.randint(1, 3)):
                start = rng.randrange(6)
                gens.append(
                    [rng.randrange(m) if start <= i < start + 2 else 0
                     for i, m in enumerate(sp.flat_moduli)]
                )
            codes.append(code_from_generators(sp, gens))
        for state in (linalg_module._HowellSingle, linalg_module._HowellPacked):

            def counted_finish(self, _finish=state.finish):
                counts["finishes"] += phase["peel"] or phase["span"]
                return _finish(self)

            monkeypatch.setattr(state, "finish", counted_finish)

        def counted_record(matrix, _record=module._howell_record):
            counts["span records"] += 1
            phase["span"] = True
            try:
                return _record(matrix)
            finally:
                phase["span"] = False

        monkeypatch.setattr(module, "_howell_record", counted_record)
        monkeypatch.setattr(codes_module._PrefixTable, "__init__", no_table)
        generators = spans = 0
        for code in codes:
            with monkeypatch.context() as patch:
                patch.setattr(BlockCode, "__post_init__", no_code)
                patch.setattr(BlockCode, "from_howell", no_code)
                gens = module._peel(code)
                assert module._verified(code, gens).order_product == code.cardinality
            generators += len(gens)
            spans += len(gens) > 1
        assert counts["steps"] == generators > 30
        assert counts["span records"] == spans > 0
        assert counts["howell forms"] == counts["finishes"] == 0
        assert counts["part states"] == counts["parts"] == len(codes)
        assert counts["part pushes"] == counts["part records"] == counts["parts"] + counts["steps"]
        assert counts["window states"] == counts["steps"]
        assert counts["window pushes"] == counts["window records"] == counts["steps"]


class TestVerifyDecomposition:
    def test_alternative_generators_verify(self, even_weight):
        alt = Decomposition(
            even_weight.space,
            (
                DecompositionGenerator((1, 1, 0), 0, 2, 2, 2),
                DecompositionGenerator((1, 0, 1), 0, 3, 2, 2),
            ),
        )
        ok, cert = verify_decomposition(even_weight, alt)
        assert ok, cert.render()

    def test_repeated_generator_fails_directness(self, even_weight):
        bad = Decomposition(
            even_weight.space,
            (
                DecompositionGenerator((1, 1, 0), 0, 2, 2, 2),
                DecompositionGenerator((1, 1, 0), 0, 2, 2, 2),
            ),
        )
        ok, cert = verify_decomposition(even_weight, bad)
        assert not ok
        assert "directness" in cert.failed_condition

    def test_wrong_window_fails(self, even_weight):
        bad = Decomposition(
            even_weight.space,
            (
                DecompositionGenerator((1, 1, 0), 0, 1, 2, 2),
                DecompositionGenerator((0, 1, 1), 1, 3, 2, 2),
            ),
        )
        ok, cert = verify_decomposition(even_weight, bad)
        assert not ok

    def test_wrong_declared_order_fails(self, even_weight):
        bad = Decomposition(
            even_weight.space,
            (
                DecompositionGenerator((1, 1, 0), 0, 2, 4, 2),
                DecompositionGenerator((0, 1, 1), 1, 3, 2, 2),
            ),
        )
        ok, cert = verify_decomposition(even_weight, bad)
        assert not ok and cert.membership_ok and not cert.support_ok
        assert cert.failed_condition == "support windows or declared orders"

    def test_word_outside_the_code_fails_membership(self, even_weight):
        bad = Decomposition(
            even_weight.space,
            (
                DecompositionGenerator((1, 0, 0), 0, 1, 2, 2),
                DecompositionGenerator((0, 1, 1), 1, 3, 2, 2),
            ),
        )
        ok, cert = verify_decomposition(even_weight, bad)
        assert not ok and not cert.membership_ok
        assert cert.failed_condition == "membership"

    def test_cardinality_mismatch_fails(self, even_weight):
        partial = Decomposition(
            even_weight.space,
            (DecompositionGenerator((1, 1, 0), 0, 2, 2, 2),),
        )
        ok, cert = verify_decomposition(even_weight, partial)
        assert not ok
        assert cert.failed_condition == "order product vs code cardinality"


class TestSubdirectProduct:
    def test_even_weight(self, even_weight):
        decomposition = cyclic_product_decomposition(even_weight)
        assert is_subdirect_product(even_weight, decomposition)

    def test_zero_code(self):
        z = zero_code(binary_space(2))
        assert is_subdirect_product(z, Decomposition(z.space, ()))

    def test_same_order_other_subgroup_fails(self, even_weight):
        # <100, 010> has the order of the even-weight code but is not it,
        # and <110> is a proper subgroup of it.
        for words in ([(1, 0, 0), (0, 1, 0)], [(1, 1, 0)]):
            decomposition = decomposition_of(even_weight.space, words)
            assert not is_subdirect_product(even_weight, decomposition)

    def test_verified_decompositions_always_pass(self):
        rng = random.Random(113)
        for _ in range(10):
            sp = space(*[(rng.choice([2, 4]),) for _ in range(3)])
            code = code_from_generators(
                sp,
                [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)],
            )
            decomposition = cyclic_product_decomposition(code)
            assert is_subdirect_product(code, decomposition)


class TestCertificateKept:
    def test_decomposition_carries_its_certificate(self):
        rng = random.Random(29)
        for _ in range(10):
            sp = space(*[(rng.choice([2, 4, 6]),) for _ in range(3)])
            code = code_from_generators(
                sp,
                [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)],
            )
            decomposition = cyclic_product_decomposition(code)
            ok, cert = verify_decomposition(code, decomposition)
            assert decomposition.certificate == cert
            assert decomposition.certificate.ok and ok
            assert is_subdirect_product(code, decomposition)

    def test_coprime_rectangular_carries_its_certificate(self):
        code = code_from_generators(space((2,), (3,)), [(1, 1)])
        decomposition = coprime_rectangular(code)
        assert decomposition.certificate.ok
        assert is_subdirect_product(code, decomposition)

    def test_certificate_not_part_of_equality(self, even_weight):
        decomposition = cyclic_product_decomposition(even_weight)
        bare = Decomposition(decomposition.space, decomposition.generators)
        assert bare.certificate is None
        assert bare == decomposition


def meet_directness(code, words):
    """The directness tuple by Zassenhaus meets: <y_1..y_j> meets <y_{j+1}>
    trivially, one entry per generator after the first."""
    out = []
    accumulated = zero_code(code.space)
    for j in range(len(words) - 1):
        accumulated = join(accumulated, code_from_generators(code.space, [words[j]]))
        nxt = code_from_generators(code.space, [words[j + 1]])
        out.append(intersect(accumulated, nxt).cardinality == 1)
    return tuple(out)


def decomposition_of(space, words):
    moduli = space.flat_moduli
    return Decomposition(
        space,
        tuple(
            DecompositionGenerator(w, *space.support(w), vector_order(w, moduli), None)
            for w in words
        ),
    )


class TestDirectnessByCounting:
    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_zassenhaus_meets(self, mixed_corpus, data):
        code = data.draw(st.sampled_from(mixed_corpus))
        moduli = code.space.flat_moduli
        words = data.draw(st.lists(st.sampled_from(list(code.words())), min_size=1, max_size=4))
        # Repeated and dependent generators: c·y_i + y_j for earlier ones.
        for _ in range(data.draw(st.integers(0, 2))):
            i = data.draw(st.integers(0, len(words) - 1))
            j = data.draw(st.integers(0, len(words) - 1))
            c = data.draw(st.integers(0, 3))
            words.append(tuple((c * a + b) % m for a, b, m in zip(words[i], words[j], moduli)))
        _, cert = verify_decomposition(code, decomposition_of(code.space, words))
        assert cert.directness_ok == meet_directness(code, words)

    def test_space_mismatch_raises(self):
        # The same flat word over [2] [2] and over the horizon-1 space [2,2].
        two = space((2,), (2,))
        one = space((2, 2))
        decomposition = Decomposition(two, (DecompositionGenerator((1, 1), 0, 2, 2, 2),))
        code = code_from_generators(one, [(1, 1)])
        with pytest.raises(ValueError):
            verify_decomposition(code, decomposition)
        with pytest.raises(ValueError):
            is_subdirect_product(code, decomposition)


def stepwise_certificate(code, decomposition, monkeypatch):
    """The certificate ``verify_decomposition`` gives with every directness
    step read off the span of its own generator prefix."""
    import groupcodes.structure as module

    def stepwise(space, words, orders):
        return stepwise_directness(space, words)

    with monkeypatch.context() as patch:
        patch.setattr(module, "_directness", stepwise)
        return verify_decomposition(code, decomposition)[1]


def reordered(decomposition, order):
    return Decomposition(
        decomposition.space, tuple(decomposition.generators[i] for i in order)
    )


class TestDirectnessOnOneSpan:
    """``verify_decomposition`` checks one span of all the generators and
    builds the prefix spans only when that fails; its certificate equals
    the step-by-step one."""

    def test_valid_and_reordered_decompositions(self, exhaustive_corpus, mixed_corpus, monkeypatch):
        rng = random.Random(2311)
        checked = 0
        for code in exhaustive_corpus + mixed_corpus:
            decomposition = cyclic_product_decomposition(code)
            k = len(decomposition.generators)
            orders = [list(range(k)), list(range(k))[::-1]]
            orders.append(rng.sample(range(k), k))
            for order in orders:
                candidate = reordered(decomposition, order)
                _, cert = verify_decomposition(code, candidate)
                assert cert.ok
                assert cert == stepwise_certificate(code, candidate, monkeypatch)
                checked += k > 1
        assert checked > 100

    def test_repeated_and_dependent_generators(self, exhaustive_corpus, monkeypatch):
        rng = random.Random(2333)
        failures = set()
        for code in exhaustive_corpus:
            gens = list(cyclic_product_decomposition(code).generators)
            if not gens:
                continue
            moduli = code.space.flat_moduli
            for _ in range(3):
                extra = list(gens)
                i, j = rng.randrange(len(gens)), rng.randrange(len(gens))
                if rng.random() < 0.5:
                    extra.insert(rng.randrange(len(extra) + 1), gens[i])  # repeated
                else:
                    c = rng.randrange(4)
                    word = tuple(
                        (c * a + b) % m for a, b, m in zip(gens[i].word, gens[j].word, moduli)
                    )
                    lo, hi = code.space.support(word)
                    extra.insert(
                        rng.randrange(len(extra) + 1),
                        DecompositionGenerator(word, lo, hi, vector_order(word, moduli), None),
                    )
                candidate = Decomposition(code.space, tuple(extra))
                _, cert = verify_decomposition(code, candidate)
                assert cert == stepwise_certificate(code, candidate, monkeypatch)
                failures.add(cert.failed_condition)
        assert any(f and f.startswith("directness") for f in failures)

    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_arbitrary_word_lists(self, mixed_corpus, data):
        code = data.draw(st.sampled_from(mixed_corpus))
        words = data.draw(st.lists(st.sampled_from(list(code.words())), max_size=5))
        _, cert = verify_decomposition(code, decomposition_of(code.space, words))
        assert cert.directness_ok == stepwise_directness(code.space, words)


def test_block_pool_splits_by_counting_and_verifies_on_one_span(monkeypatch, tmp_path):
    # analyze and decompose over the whole seed-7 block-codes pool: the
    # order profile solves and takes kernels nowhere, and each valid
    # decomposition reads one record of the span of its generators (none
    # with fewer than two) and builds no code (one code of that span when
    # it was a Howell form).
    import sys

    import groupcodes.control as control
    import groupcodes.linalg as linalg
    import groupcodes.structure as structure

    from . import report_digest

    inside = {"order_profile": 0, "verify": None}
    solved = []
    for name in ("head_solve", "head_kernel"):
        original = getattr(linalg, name)

        def spied(*args, _name=name, _original=original):
            if inside["order_profile"]:
                solved.append(_name)
            return _original(*args)

        for module in [m for n, m in sys.modules.items() if n.startswith("groupcodes")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spied)
    profile = control.order_profile

    def traced_profile(code):
        inside["order_profile"] += 1
        try:
            return profile(code)
        finally:
            inside["order_profile"] -= 1

    monkeypatch.setattr(control, "order_profile", traced_profile)
    monkeypatch.setattr(sys.modules["groupcodes.cli"], "order_profile", traced_profile)
    spans, verified = [], []
    build, record = structure.code_from_generators, structure._howell_record

    def counted_build(space, generators):
        if inside["verify"] is not None:
            inside["verify"]["codes"] += 1
        return build(space, generators)

    def counted_record(matrix):
        if inside["verify"] is not None:
            inside["verify"]["records"] += 1
        return record(matrix)

    verify = structure.verify_decomposition

    def counted_verify(code, decomposition):
        inside["verify"] = Counter()
        try:
            ok, cert = verify(code, decomposition)
        finally:
            built, inside["verify"] = inside["verify"], None
        if ok:
            spans.append((built, len(decomposition.generators)))
        verified.append(ok)
        return ok, cert

    monkeypatch.setattr(structure, "code_from_generators", counted_build)
    monkeypatch.setattr(structure, "_howell_record", counted_record)
    monkeypatch.setattr(structure, "verify_decomposition", counted_verify)
    specs = report_digest.pool("block-codes", 7, None)
    for spec in specs:
        path = tmp_path / spec.name
        path.write_text(spec.text, encoding="utf-8")
        for command in ("analyze", "decompose"):
            assert report_digest.report((command,), str(path)).startswith(b"(0, ")
    assert len(specs) > 100 and all(verified) and len(verified) == len(specs)
    assert solved == []
    assert all(built == Counter(records=1 if k > 1 else 0) for built, k in spans)
    assert any(k > 1 for _, k in spans)


def assert_peels_like_codes(code):
    """The reversed-row peel and the complement-code route give the same
    generators (word, window, order, prime) and the same certificate."""
    got, expected = cyclic_product_decomposition(code), code_peel_decomposition(code)
    assert got.generators == expected.generators
    assert got.certificate == expected.certificate and got.certificate.ok


class TestCodePeelTwin:
    """``cyclic_product_decomposition`` against
    ``kernel_references.code_peel_decomposition``, the route that built
    every primary part and complement as a code."""

    def test_exhaustive_corpus(self, exhaustive_corpus):
        for code in exhaustive_corpus:
            assert_peels_like_codes(code)

    def test_mixed_corpus(self, mixed_corpus):
        for code in twin_corpus(mixed_corpus):
            assert_peels_like_codes(code)

    @pytest.mark.parametrize("path", BAND_SPEC_PATHS, ids=lambda p: p.stem)
    def test_band_specs(self, path):
        assert_peels_like_codes(band_code(path.name))

    @pytest.mark.parametrize("menu", [(2, 4, 8), (3, 9, 27), (6, 12, 36)])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_moduli_menus(self, menu, data):
        assert_peels_like_codes(data.draw(mixed_codes(menu=menu)))


def band_block_code(n, modulus, tap):
    """The band code of every in-window shift of ``tap`` over n symbols
    Z/``modulus``."""
    return shifted_taps([modulus] * n, [tap])


BAND_TAPS = {8: (7, 1, 6), 9: (8, 1, 5), 6: (5, 1, 4)}


def peel_characters(code):
    """(word, moduli, order, chi) of every splitting character the peel of
    ``code`` solves for."""
    import groupcodes.structure as module

    original, seen = module._splitting_character, []

    def recorded(word, moduli, order):
        chi = original(word, moduli, order)
        seen.append((tuple(word), moduli, order, chi))
        return chi

    module._splitting_character = recorded
    try:
        cyclic_product_decomposition(code)
    finally:
        module._splitting_character = original
    return seen


class TestSplittingCharacterTwin:
    """``structure._splitting_character``, the greedy closed form, against
    ``kernel_references.graph_splitting_character``, the graph route: a
    ``head_solve`` of the character graph reduced by ``coset_reduce``."""

    @staticmethod
    def assert_peel_characters(code):
        steps = peel_characters(code)
        for word, moduli, order, chi in steps:
            assert chi == graph_splitting_character(word, moduli, order)
        return len(steps)

    def test_exhaustive_corpus(self, exhaustive_corpus):
        assert sum(map(self.assert_peel_characters, exhaustive_corpus)) > 100

    def test_mixed_corpus(self, mixed_corpus):
        assert sum(map(self.assert_peel_characters, mixed_corpus)) > 40

    @pytest.mark.parametrize(
        "menu", [(8,), (9,), (27,), (6, 12, 36)], ids=["Z8", "Z9", "Z27", "mixed"]
    )
    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_peels_over_menus(self, menu, data):
        self.assert_peel_characters(data.draw(mixed_codes(menu=menu)))

    @pytest.mark.parametrize(
        "menu",
        [(1, 2, 4, 8), (1, 3, 9), (1, 3, 9, 27), (1, 6, 12, 36)],
        ids=["Z8", "Z9", "Z27", "mixed"],
    )
    @given(data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_any_word(self, menu, data):
        # Every nonzero word with its own order, in or out of a peel: the
        # shortest full-order prefix and the least character on it.
        from groupcodes.structure import _splitting_character

        moduli = tuple(data.draw(st.lists(st.sampled_from(menu), min_size=1, max_size=6)))
        word = tuple(data.draw(st.integers(0, m - 1)) for m in moduli)
        order = vector_order(word, moduli)
        chi = _splitting_character(word, moduli, order)
        assert chi == graph_splitting_character(word, moduli, order)
        L = lcm(*moduli)
        assert sum(c * e * (L // m) for c, e, m in zip(chi, word, moduli)) % L == L // order % L
        # A claimed order above the word's leaves no character.
        for p in (2, 3):
            if L % (order * p) == 0:
                with pytest.raises(DecompositionError, match="no splitting character"):
                    _splitting_character(word, moduli, order * p)

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("modulus", sorted(BAND_TAPS))
    def test_band_codes_peel_like_codes(self, modulus, n):
        code = band_block_code(n, modulus, BAND_TAPS[modulus])
        steps = self.assert_peel_characters(code)
        assert steps == len(cyclic_product_decomposition(code).generators) >= n - 2
        assert_peels_like_codes(code)


def peel_pushes(code, monkeypatch):
    """(steps, rows): the peel steps of ``code`` and the rows they push
    into the states of its primary parts."""
    import groupcodes.linalg as linalg_module
    import groupcodes.structure as module

    counts, depth = Counter(), [0]

    def counted_step(*args, _step=module._peel_complement):
        counts["steps"] += 1
        depth[0] += 1
        try:
            return _step(*args)
        finally:
            depth[0] -= 1

    with monkeypatch.context() as patch:
        patch.setattr(module, "_peel_complement", counted_step)
        for state in (linalg_module._HowellSingle, linalg_module._HowellPacked):

            def counted_push(self, rows, _push=state.push):
                rows = list(rows)
                counts["rows"] += len(rows) if depth[0] else 0
                return _push(self, rows)

            patch.setattr(state, "push", counted_push)
        cyclic_product_decomposition(code)
    return counts["steps"], counts["rows"]


class TestPeelGrowth:
    """A growth gate on the peel: the rows each step pushes into its
    part's state (the rows its splitting character meets, their kernel and
    the rows between them), pinned exactly on the Z/8, Z/9 and Z/6 band
    codes at N = 16, 32 and 64.  Per doubling of N they must grow less
    than ×2.5, so the work per step stays about constant, where a step
    that re-forms the whole complement pushes every remaining row, about
    ×4.  The README states the bound."""

    PUSHED = {
        8: {16: (14, 16), 32: (30, 32), 64: (62, 64)},
        9: {16: (14, 67), 32: (30, 119), 64: (62, 287)},
        6: {16: (28, 40), 32: (60, 88), 64: (124, 184)},
    }

    @pytest.mark.parametrize("modulus", sorted(PUSHED))
    def test_rows_pushed_grow_linearly(self, modulus, monkeypatch):
        pinned = self.PUSHED[modulus]
        pushed = {
            n: peel_pushes(band_block_code(n, modulus, BAND_TAPS[modulus]), monkeypatch)
            for n in pinned
        }
        assert pushed == pinned
        for n in (16, 32):
            assert pushed[2 * n][1] < 2.5 * pushed[n][1]


class TestPeelComplementByKernel:
    @given(st.data())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_matches_meet_with_annihilator(self, data):
        p = data.draw(st.sampled_from([2, 3]))
        palette = {2: [(2,), (4,), (8,), (2, 4)], 3: [(3,), (9,), (3, 3)]}[p]
        sp = space(*data.draw(st.lists(st.sampled_from(palette), min_size=1, max_size=4)))
        gens = data.draw(
            st.lists(
                st.tuples(*[st.integers(0, m - 1) for m in sp.flat_moduli]),
                min_size=1,
                max_size=3,
            )
        )
        current = code_from_generators(sp, gens)
        state, moduli = _primary_state(current, p)[0], sp.flat_moduli
        record, kept = state.record(), {}
        while record[0]:
            assert forward_code(sp, record[0]) == current
            orders = _row_orders(record, moduli, kept)
            word, order = _max_order_in_smallest_window(record, orders, moduli, sp.offsets(), p)
            _peel_complement(state, record, moduli, word, order)
            record = complement_record = state.record()
            complement = forward_code(sp, complement_record[0])
            # The state holds a weak Howell form of the complement, whose
            # finished form is the complement's reversed Howell form.
            assert_weak_howell(complement_record, sp.flat_moduli[::-1])
            assert howell_form(
                residue_matrix(complement_record[0], sp.flat_moduli[::-1])
            ).rows == complement._reversed_howell
            assert complement.basis == meet_peel_complement(current, word, order).basis
            cyclic = code_from_generators(sp, [word])
            assert complement.cardinality * order == current.cardinality
            assert complement_record[2][-1] * order == current.cardinality
            assert join(complement, cyclic) == current
            current = complement


    @pytest.mark.parametrize(
        "moduli, gens",
        [
            ((8, 8, 4, 2, 2, 8), [(0, 0, 2, 1, 0, 6), (6, 6, 0, 0, 0, 0), (3, 6, 1, 0, 1, 0)]),
            ((8, 4, 4, 8, 4, 4), [(7, 0, 0, 0, 3, 2), (6, 1, 0, 0, 0, 0), (0, 0, 1, 5, 0, 0)]),
        ],
    )
    def test_rows_between_the_split_rows_are_pushed_again(self, moduli, gens):
        # On these codes a step that drops only the rows its character
        # meets, and keeps the rows between them, leaves a record without
        # the Howell property; every record here must have it.
        sp = space(*[(m,) for m in moduli])
        code = code_from_generators(sp, gens)
        steps = [word for _, word, _ in peel_steps(sp, _primary_state(code, 2)[0], 2)]
        assert tuple(steps) == tuple(g.word for g in cyclic_product_decomposition(code).generators)


BLOCK_SPECS = sorted(
    name for name, path in SPECS.items() if "kind: block" in path.read_text(encoding="utf-8")
)


@pytest.mark.parametrize("spec", BLOCK_SPECS)
def test_decompose_intersects_nothing(spec, monkeypatch):
    # Directness is counted on the joins and the peel complement is one
    # kernel read; no Zassenhaus meet is built.
    import groupcodes.codes as codes_module
    import groupcodes.linalg as linalg_module
    from groupcodes.cli import main

    calls = []
    meet = linalg_module.intersect_rows

    def counted(a, b):
        calls.append(1)
        return meet(a, b)

    monkeypatch.setattr(linalg_module, "intersect_rows", counted)
    monkeypatch.setattr(codes_module, "intersect_rows", counted)
    path = str(SPECS[spec])
    assert main(["decompose", path]) == 0
    assert main(["check", path, "--property", "subdirect"]) == 0
    assert calls == []


def reference_primary_code(code, p):
    """The p-primary part through ``PrimaryComponent.project``, one symbol
    at a time, with the per-symbol components that embed words back."""
    sp = code.space
    comps = [primary_decomposition(g).get(p) for g in sp.symbols]
    symbols = tuple(
        FiniteAbelianGroup((1,) * len(g.moduli)) if comp is None else comp.group
        for g, comp in zip(sp.symbols, comps)
    )
    rows = []
    for row in code.basis.rows:
        projected = []
        for g, comp, piece in zip(sp.symbols, comps, sp.split(row)):
            if comp is None:
                projected.extend(0 for _ in piece)
            else:
                projected.extend(comp.project(g.element(piece)).residues)
        rows.append(projected)
    return code_from_generators(SequenceSpace(symbols), rows), comps


def reference_embed(word, part_space, comps, space):
    """A component word embedded through ``PrimaryComponent.embed``."""
    out = []
    for g, comp, piece in zip(space.symbols, comps, part_space.split(word)):
        if comp is None:
            out.extend(0 for _ in piece)
        else:
            out.extend(comp.embed(comp.group.element(piece)).residues)
    return tuple(out)


def twin_corpus(mixed_corpus):
    """``mixed_corpus`` and random codes over Z/12, Z/6 and Z/9 symbols."""
    rng = random.Random(1213)
    extra = []
    for symbols in (((12,), (6,), (9,)), ((12, 2), (1,), (3, 9)), ((12,), (1,), (12,))):
        sp = space(*symbols)
        for k in (1, 2, 3):
            gens = [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(k)]
            extra.append(code_from_generators(sp, gens))
    return list(mixed_corpus) + extra


class TestPrimaryColumns:
    def test_primary_part_by_brute_force(self):
        for m in range(1, 201):
            for p in prime_factors(m) + [211]:
                q = max(p**k for k in range(m.bit_length()) if m % p**k == 0)
                units = [u for u in range(m) if u % q == 1 % q and u % (m // q) == 0]
                assert primary_part(m, p) == (q, units[0] if q > 1 else 0), (m, p)

    def test_matches_per_symbol_projection_and_embedding(self, mixed_corpus):
        moduli_seen = set()
        for code in twin_corpus(mixed_corpus):
            moduli = code.space.flat_moduli
            moduli_seen.update(moduli)
            words = iter(g.word for g in cyclic_product_decomposition(code).generators)
            for p in FiniteAbelianGroup(moduli).primes():
                state, columns = _primary_state(code, p)
                reference, comps = reference_primary_code(code, p)
                record = state.record()
                part = forward_code(reference.space, record[0])
                assert part == reference
                assert_weak_howell(record, reference.space.flat_moduli[::-1])
                for word in part.words():
                    embedded = tuple(e * u % m for e, (_, u), m in zip(word, columns, moduli))
                    assert embedded == reference_embed(word, part.space, comps, code.space)
                # The peeled generators, embedded the old way.
                for _, word, _ in peel_steps(reference.space, state, p):
                    assert next(words) == reference_embed(word, part.space, comps, code.space)
            assert next(words, None) is None
        assert {1, 6, 9, 12} <= moduli_seen

    def test_decomposition_builds_no_group_element(self, mixed_corpus, monkeypatch):
        built = []
        check = GroupElement.__post_init__

        def counted(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(GroupElement, "__post_init__", counted)
        for code in mixed_corpus:
            assert cyclic_product_decomposition(code).certificate.ok
        assert built == []

    def test_recombination_makes_no_join(self, mixed_corpus, monkeypatch):
        import groupcodes.codes as codes_module
        import groupcodes.structure as structure_module

        calls = []
        join_codes = codes_module.join

        def counted(a, b):
            calls.append(1)
            return join_codes(a, b)

        monkeypatch.setattr(codes_module, "join", counted)
        monkeypatch.setattr(structure_module, "join", counted, raising=False)
        for code in mixed_corpus:
            decomposition = cyclic_product_decomposition(code)
            assert verify_decomposition(code, decomposition)[0]
            assert is_subdirect_product(code, decomposition)
        assert calls == []
