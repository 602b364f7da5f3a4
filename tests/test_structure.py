"""Tests for rectangularity and cyclic product decompositions."""

import random
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
    _entry,
    annihilator_rows,
    coset_reduce,
    head_kernel,
    head_solve,
    homomorphism_graph,
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
    _primary_rows,
    _smallest_full_prefix,
    coprime_rectangular,
    cyclic_product_decomposition,
    is_subdirect_product,
    verify_decomposition,
)

from .conftest import BAND_SPEC_PATHS, band_code
from .kernel_references import (
    code_peel_decomposition,
    integer_smith_diagonal,
    stepwise_directness,
)
from .test_codes import mixed_codes
from .test_golden_cli import SPECS
from .test_linalg import enumerate_span


def space(*symbol_moduli):
    return SequenceSpace(tuple(FiniteAbelianGroup(m) for m in symbol_moduli))


def binary_space(n):
    return space(*[(2,)] * n)


def forward_code(sp, reversed_rows):
    """The code of ``sp`` spanned by column-reversed rows, re-reversed."""
    return code_from_generators(sp, [row[::-1] for row in reversed_rows])


def peel_steps(sp, rows, p):
    """(reversed rows, word, order) of every peel step of the p-group with
    column-reversed Howell ``rows`` in ``sp``, by the reversed-row helpers."""
    moduli, offsets = sp.flat_moduli, sp.offsets()
    while rows:
        record = _entry(rows, moduli[::-1])
        word, order = _max_order_in_smallest_window(record, moduli, offsets, p)
        yield rows, word, order
        rows = _peel_complement(rows, moduli, word, order)


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

        def stuck(rows, moduli, word, order):
            calls.append(order)
            if len(calls) > 50:
                raise AssertionError("the peel loop kept going")
            return rows

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
            for rows, word, order in peel_steps(sp, start._reversed_howell, p):
                current = forward_code(sp, rows)
                assert rows == current._reversed_howell
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
                rows, columns = _primary_rows(code, p)
                moduli = tuple(q for q, _ in columns)
                part = space(*sp.split(moduli))
                while rows:
                    record = _entry(rows, moduli[::-1])
                    with monkeypatch.context() as patch:
                        patch.setattr(codes_module._PrefixTable, "__init__", no_table)
                        n, exponent = _smallest_full_prefix(record, moduli, offsets)
                        word, order = _max_order_in_smallest_window(record, moduli, offsets, p)
                    current = forward_code(part, rows)
                    assert n == prefix_code_search(current)
                    assert order == exponent == exponent_of(current)
                    assert current.space.support(word)[1] <= n
                    visits["whole" if n == current.space.horizon else "inside"] += 1
                    rows = _peel_complement(rows, moduli, word, order)
        assert visits["inside"] > 100 and visits["whole"] > 100

    def test_each_peel_step_makes_one_complement_kernel_and_one_window_record(
        self, monkeypatch
    ):
        # Over banded 2- and 3-groups of horizon 6 the searched window sits
        # anywhere.  Each peel step pushes the window's rows into one Howell
        # state and reads its record once, finishing none, and reads its
        # complement off one
        # vanishing-head kernel of [chi(r) | r]; each character graph's
        # solution and kernel come from one Howell form of it; no prefix
        # table and no code is built before the verification.
        import groupcodes.codes as codes_module
        import groupcodes.linalg as linalg_module
        import groupcodes.structure as module

        rng = random.Random(1709)
        counts = {
            "steps": 0, "pushes": 0, "records": 0, "finishes": 0, "complements": 0, "codes": 0,
            "graph forms": 0,
        }
        graphs = {}  # id -> graph, kept alive so that no id is reused
        phase = {"verify": False}

        class CountedState:
            def __init__(self, state):
                self.state = state

            def push(self, rows):
                counts["pushes"] += 1
                self.state.push(rows)

            def record(self):
                counts["records"] += 1
                return self.state.record()

            def finish(self):
                counts["finishes"] += 1
                return self.state.finish()

        def counted_state(moduli, _state=module._howell_state):
            return CountedState(_state(moduli))

        def counted_graph(*args, _graph=module.homomorphism_graph):
            graph = _graph(*args)
            graphs[id(graph)] = graph
            return graph

        def counted_kernel(matrix, head, _kernel=module.head_kernel):
            if id(matrix) not in graphs:
                counts["complements"] += 1
            return _kernel(matrix, head)

        def counted_howell(matrix, _howell=linalg_module.howell_form):
            counts["graph forms"] += id(matrix) in graphs
            return _howell(matrix)

        def counted_search(*args, _search=module._max_order_in_smallest_window):
            counts["steps"] += 1
            return _search(*args)

        def no_table(self, *args):
            raise AssertionError("a prefix table in the decomposition")

        def counted_code(*args, _init=BlockCode.__post_init__):
            counts["codes"] += not phase["verify"]
            _init(*args)

        def counted_from_howell(cls, *args, _build=BlockCode.from_howell.__func__):
            counts["codes"] += not phase["verify"]
            return _build(cls, *args)

        def marked_verify(*args, _verify=module.verify_decomposition):
            phase["verify"] = True
            try:
                return _verify(*args)
            finally:
                phase["verify"] = False

        monkeypatch.setattr(module, "_howell_state", counted_state)
        monkeypatch.setattr(module, "homomorphism_graph", counted_graph)
        monkeypatch.setattr(module, "head_kernel", counted_kernel)
        monkeypatch.setattr(linalg_module, "howell_form", counted_howell)
        monkeypatch.setattr(module, "_max_order_in_smallest_window", counted_search)
        monkeypatch.setattr(module, "verify_decomposition", marked_verify)
        monkeypatch.setattr(codes_module._PrefixTable, "__init__", no_table)
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
        monkeypatch.setattr(BlockCode, "__post_init__", counted_code)
        monkeypatch.setattr(BlockCode, "from_howell", classmethod(counted_from_howell))
        generators = 0
        for code in codes:
            decomposition = cyclic_product_decomposition(code)
            assert decomposition.order_product == code.cardinality
            generators += len(decomposition.generators)
        assert counts["steps"] == generators > 30
        assert counts["pushes"] == counts["records"] == counts["steps"]
        assert counts["finishes"] == 0
        assert counts["complements"] == counts["steps"]
        assert counts["graph forms"] == len(graphs) >= counts["steps"]
        assert counts["codes"] == 0


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


def meet_peel_complement(current, word, order):
    """The complement as the meet of ``current`` with the annihilator of
    the same canonical splitting character."""
    moduli = current.space.flat_moduli
    L = lcm(*moduli)
    for prefix in range(1, len(moduli) + 1):
        if vector_order(word[:prefix], moduli[:prefix]) != order:
            continue
        images = [[(e * (L // m)) % L] for e, m in zip(word[:prefix], moduli[:prefix])]
        graph = homomorphism_graph(images, moduli[:prefix], (L,))
        chi_head = head_solve(graph, 1, (L // order,))
        if chi_head is None:
            continue
        chi_head = coset_reduce(head_kernel(graph, 1), chi_head)
        chi = tuple(chi_head) + tuple(0 for _ in moduli[prefix:])
        chi_perp = annihilator_rows(residue_matrix([chi], moduli))
        return intersect(current, BlockCode.from_howell(current.space, chi_perp.rows))
    raise AssertionError("no splitting character")


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

    with monkeypatch.context() as patch:
        patch.setattr(module, "_directness", stepwise_directness)
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
    # decomposition builds one span of its generators (none with fewer
    # than two).
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
    build = structure.code_from_generators

    def counted_build(space, generators):
        if inside["verify"] is not None:
            inside["verify"] += 1
        return build(space, generators)

    verify = structure.verify_decomposition

    def counted_verify(code, decomposition):
        inside["verify"] = 0
        try:
            ok, cert = verify(code, decomposition)
        finally:
            built, inside["verify"] = inside["verify"], None
        if ok:
            spans.append((built, len(decomposition.generators)))
        verified.append(ok)
        return ok, cert

    monkeypatch.setattr(structure, "code_from_generators", counted_build)
    monkeypatch.setattr(structure, "verify_decomposition", counted_verify)
    specs = report_digest.pool("block-codes", 7, None)
    for spec in specs:
        path = tmp_path / spec.name
        path.write_text(spec.text, encoding="utf-8")
        for command in ("analyze", "decompose"):
            assert report_digest.report((command,), str(path)).startswith(b"(0, ")
    assert len(specs) > 100 and all(verified) and len(verified) == len(specs)
    assert solved == []
    assert all(built == (1 if k > 1 else 0) for built, k in spans)
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
        rows = current._reversed_howell
        while rows:
            record = _entry(rows, sp.flat_moduli[::-1])
            word, order = _max_order_in_smallest_window(record, sp.flat_moduli, sp.offsets(), p)
            complement_rows = _peel_complement(rows, sp.flat_moduli, word, order)
            complement = forward_code(sp, complement_rows)
            # The kernel's tails are the complement's reversed Howell form.
            assert complement_rows == complement._reversed_howell
            assert complement.basis == meet_peel_complement(current, word, order).basis
            cyclic = code_from_generators(sp, [word])
            assert complement.cardinality * order == current.cardinality
            assert join(complement, cyclic) == current
            current, rows = complement, complement_rows


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
                rows, columns = _primary_rows(code, p)
                reference, comps = reference_primary_code(code, p)
                part = forward_code(reference.space, rows)
                assert part == reference
                assert rows == reference._reversed_howell
                for word in part.words():
                    embedded = tuple(e * u % m for e, (_, u), m in zip(word, columns, moduli))
                    assert embedded == reference_embed(word, part.space, comps, code.space)
                # The peeled generators, embedded the old way.
                for _, word, _ in peel_steps(reference.space, rows, p):
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
