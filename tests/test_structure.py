"""Tests for rectangularity and cyclic product decompositions."""

import random

import pytest

from groupcodes.codes import (
    BlockCode,
    SequenceSpace,
    code_from_generators,
    window_internal,
    zero_code,
)
from groupcodes.groups import FiniteAbelianGroup
from groupcodes.linalg import vector_order
from groupcodes.structure import (
    Decomposition,
    DecompositionGenerator,
    _max_order_in_smallest_window,
    _peel_complement,
    coprime_rectangular,
    cyclic_product_decomposition,
    is_subdirect_product,
    verify_decomposition,
)


def space(*symbol_moduli):
    return SequenceSpace(tuple(FiniteAbelianGroup(m) for m in symbol_moduli))


def binary_space(n):
    return space(*[(2,)] * n)


@pytest.fixture
def even_weight():
    return code_from_generators(binary_space(3), [(1, 1, 0), (0, 1, 1)])


def brute_direct_sum_size(code, decomposition):
    """|sum of cyclic factors| by closure, for independent verification."""
    from .test_linalg import enumerate_span

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

    def test_generator_orders_refine_invariant_factors(self):
        # Regrouping the per-prime generator orders by Smith normalization
        # recovers the isomorphism type of the code.
        from groupcodes.codes import invariant_factors_of_code
        from groupcodes.linalg import integer_smith_diagonal

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
        # Every window the peeling visits, over p-primary symbols.
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
            current = code_from_generators(sp, gens)
            while current.cardinality > 1:
                word, order = _max_order_in_smallest_window(current, p)
                assert (word, order) == least_max_order_word(current)
                current = _peel_complement(current, word, order)
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
