"""Tests for pairings, annihilators and quotient duality."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcodes.codes import SequenceSpace, code_from_generators
from groupcodes.duality import (
    Character,
    QmodZ,
    annihilator,
    dual_block_code,
    is_annihilator,
    pairing,
    pairs_to_zero,
    quotient_duality_check,
)
from groupcodes.groups import FiniteAbelianGroup
from groupcodes.linalg import (
    howell_form,
    residue_matrix,
    span_cardinality,
)

from .kernel_references import loop_pairs_to_zero
from .test_linalg import enumerate_span


def random_subgroup(rng, moduli, max_gens=3):
    rows = [
        tuple(rng.randrange(m) for m in moduli)
        for _ in range(rng.randint(0, max_gens))
    ]
    return howell_form(residue_matrix(rows, moduli))


def fraction_pairing(x, chi):
    """The pairing as a sum of ``Fraction``s taken modulo 1."""
    total = sum(
        (Fraction(a * b, m) for a, b, m in zip(x.residues, chi.residues, x.group.moduli)),
        Fraction(0),
    )
    return total % 1


def as_fraction(value):
    return Fraction(value.numerator, value.denominator)


moduli_lists = st.lists(st.integers(1, 60), max_size=6)
fractions = st.fractions(max_denominator=10**6) | st.integers(-(10**9), 10**9)


class TestIntegerQmodZ:
    """``QmodZ`` and ``pairing`` in integer arithmetic against ``Fraction``."""

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_pairing_matches_fraction_sum(self, data):
        G = FiniteAbelianGroup(tuple(data.draw(moduli_lists)))
        x, chi = (
            G.element([data.draw(st.integers(0, m - 1)) for m in G.moduli]) for _ in range(2)
        )
        value = pairing(x, Character(chi))
        assert as_fraction(value) == fraction_pairing(x, chi)
        assert value == QmodZ.of(fraction_pairing(x, chi))

    @given(fractions, fractions, st.integers(-50, 50))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_arithmetic_matches_fraction(self, a, b, scalar):
        p, q = QmodZ.of(a), QmodZ.of(b)
        for value, expected in (
            (p, Fraction(a) % 1),
            (p + q, (Fraction(a) + Fraction(b)) % 1),
            (-p, -Fraction(a) % 1),
            (p * scalar, scalar * Fraction(a) % 1),
            (scalar * p, scalar * Fraction(a) % 1),
        ):
            assert (value.numerator, value.denominator) == (
                expected.numerator,
                expected.denominator,
            )
            assert value.is_zero() == (expected == 0)

    def test_of_takes_int_and_fraction(self):
        assert QmodZ.of(3) == QmodZ.of(Fraction(-2)) == QmodZ.zero()
        assert QmodZ.of(Fraction(7, 4)) == -QmodZ.of(Fraction(-3, 4)) == QmodZ(3, 4)
        with pytest.raises(ValueError):
            QmodZ(2, 4)


class TestPairing:
    def test_single_coordinate(self):
        G = FiniteAbelianGroup((4,))
        chi = Character(G.element((1,)))
        assert pairing(G.element((1,)), chi) == QmodZ(1, 4)

    def test_reduces_mod_one(self):
        G = FiniteAbelianGroup((4,))
        chi = Character(G.element((2,)))
        assert pairing(G.element((2,)), chi) == QmodZ.zero()

    def test_zero_element(self):
        G = FiniteAbelianGroup((4, 6))
        for chi in [(0, 0), (1, 2), (3, 5)]:
            assert pairing(G.zero(), Character(G.element(chi))).is_zero()

    def test_bilinear(self):
        G = FiniteAbelianGroup((4, 6))
        rng = random.Random(3)
        for _ in range(30):
            x = G.element([rng.randrange(m) for m in G.moduli])
            y = G.element([rng.randrange(m) for m in G.moduli])
            chi = Character(G.element([rng.randrange(m) for m in G.moduli]))
            assert pairing(x + y, chi) == pairing(x, chi) + pairing(y, chi)

    def test_perfect_pairing(self):
        # Only the identity pairs to zero with every character.
        for moduli in [(4,), (2, 3), (2, 2, 2)]:
            G = FiniteAbelianGroup(moduli)
            for x in G.elements():
                trivial = all(
                    pairing(x, Character(chi)).is_zero() for chi in G.elements()
                )
                assert trivial == x.is_zero()


class TestAnnihilator:
    def test_zero_subgroup(self):
        moduli = (4, 6)
        zero = residue_matrix([], moduli)
        ann = annihilator(zero)
        assert span_cardinality(ann) == 24

    def test_two_in_z4(self):
        ann = annihilator(residue_matrix([(2,)], (4,)))
        assert enumerate_span(ann.rows, (4,)) == {(0,), (2,)}

    def test_diagonal_in_klein(self):
        ann = annihilator(residue_matrix([(1, 1)], (2, 2)))
        assert enumerate_span(ann.rows, (2, 2)) == {(0, 0), (1, 1)}

    def test_cardinality_and_double_dual(self):
        rng = random.Random(41)
        for _ in range(120):
            moduli = tuple(rng.choice([2, 3, 4, 6, 8]) for _ in range(rng.randint(1, 3)))
            H = random_subgroup(rng, moduli)
            total = 1
            for m in moduli:
                total *= m
            ann = annihilator(H)
            assert span_cardinality(H) * span_cardinality(ann) == total
            assert annihilator(ann) == H

    def test_is_annihilator_matches_equality(self):
        # X = Y-perp by counting and pairing, against the annihilator built.
        rng = random.Random(43)
        verdicts = set()
        for _ in range(200):
            moduli = tuple(rng.choice([2, 3, 4, 6, 8]) for _ in range(rng.randint(1, 3)))
            X, Y = random_subgroup(rng, moduli), random_subgroup(rng, moduli)
            if rng.random() < 0.3:
                X = annihilator(Y)
            got = is_annihilator(
                X.rows, span_cardinality(X), Y.rows, span_cardinality(Y), moduli
            )
            assert got == (X == annihilator(Y))
            verdicts.add(got)
        assert verdicts == {True, False}


def fraction_pairs_to_zero(xs, ys, moduli):
    """The reference verdict: every pairing(x, y) is 0 in Q/Z."""
    G = FiniteAbelianGroup(tuple(moduli))
    return all(pairing(G.element(x), G.element(y)).is_zero() for x in xs for y in ys)


class TestPairsToZero:
    """``pairs_to_zero`` against the residue loop it replaced and against
    exact pairings in Q/Z."""

    MODULI = (1, 2, 3, 4, 6, 8, 9, 12)

    def twins_agree(self, xs, ys, moduli):
        got = pairs_to_zero(xs, ys, moduli)
        assert got == loop_pairs_to_zero(xs, ys, moduli), (xs, ys, moduli)
        assert got == fraction_pairs_to_zero(xs, ys, moduli), (xs, ys, moduli)
        return got

    def test_random_rows(self):
        rng = random.Random(2311)
        verdicts = set()
        for _ in range(1500):
            moduli = tuple(rng.choice(self.MODULI) for _ in range(rng.randint(0, 5)))

            def rows(count):
                return [tuple(rng.randrange(m) for m in moduli) for _ in range(count)]

            xs, ys = rows(rng.randint(0, 3)), rows(rng.randint(0, 3))
            if rng.random() < 0.5 and xs:
                # Bias towards pairs that vanish: y in the annihilator of xs.
                perp = annihilator(residue_matrix(xs, moduli)).rows
                ys = [tuple(sum(rng.randrange(3) * r[j] for r in perp) % m
                            for j, m in enumerate(moduli)) for _ in ys]
            verdicts.add(self.twins_agree(xs, ys, moduli))
        assert verdicts == {True, False}

    def test_zero_rows_and_empty_sides(self):
        moduli = (4, 6)
        assert self.twins_agree([], [(1, 1)], moduli)
        assert self.twins_agree([(1, 1)], [], moduli)
        assert self.twins_agree([], [], ())
        assert self.twins_agree([(0, 0)], [(1, 5)], moduli)
        assert self.twins_agree([(3, 2)], [(0, 0)], moduli)
        assert not self.twins_agree([(0, 0), (1, 0)], [(0, 0), (1, 0)], moduli)

    def test_modulus_one_columns(self):
        assert self.twins_agree([(0, 1, 0)], [(0, 1, 0)], (1, 2, 1)) is False
        assert self.twins_agree([(0, 1, 0)], [(0, 0, 0)], (1, 2, 1))
        assert self.twins_agree([(0,)], [(0,)], (1,))

    def test_mixed_common_denominator(self):
        # L = 12: (1, 1)·(3, 4) reads 3/4 + 4/6 = 17/12, not 0 mod 1;
        # (1, 1)·(2, 4) reads 2/4 + 4/6 = 7/6, not 0; (2, 3)·(2, 2) is 1 + 1.
        assert not self.twins_agree([(1, 1)], [(3, 4)], (4, 6))
        assert not self.twins_agree([(1, 1)], [(2, 4)], (4, 6))
        assert self.twins_agree([(2, 3)], [(2, 2)], (4, 6))
        assert self.twins_agree([(1, 2)], [(3, 3)], (4, 6)) is False
        assert self.twins_agree([(2, 3), (0, 3)], [(2, 0), (0, 2)], (4, 6))


class TestQuotientDuality:
    def test_full_quotient_is_self_dual(self):
        moduli = (4, 2)
        G = FiniteAbelianGroup(moduli)
        S = residue_matrix([], moduli)
        R = howell_form(residue_matrix([(1, 0), (0, 1)], moduli))
        report = quotient_duality_check(S, R, G)
        assert report.ok
        assert report.quotient_factors == (2, 4)

    def test_equal_subgroups(self):
        moduli = (6,)
        G = FiniteAbelianGroup(moduli)
        S = howell_form(residue_matrix([(2,)], moduli))
        report = quotient_duality_check(S, S, G)
        assert report.ok
        assert report.quotient_factors == ()

    def test_z4_chain(self):
        moduli = (4,)
        G = FiniteAbelianGroup(moduli)
        S = howell_form(residue_matrix([(2,)], moduli))
        R = howell_form(residue_matrix([(1,)], moduli))
        report = quotient_duality_check(S, R, G)
        assert report.ok
        assert report.quotient_factors == (2,)

    def test_rejects_non_chain(self):
        moduli = (2, 2)
        G = FiniteAbelianGroup(moduli)
        S = howell_form(residue_matrix([(1, 0)], moduli))
        R = howell_form(residue_matrix([(0, 1)], moduli))
        with pytest.raises(ValueError):
            quotient_duality_check(S, R, G)

    def test_random_chains(self):
        rng = random.Random(43)
        for _ in range(60):
            moduli = tuple(rng.choice([2, 3, 4, 8]) for _ in range(rng.randint(1, 3)))
            G = FiniteAbelianGroup(moduli)
            R = random_subgroup(rng, moduli)
            # Pick S as a random subgroup of R.
            r_elems = sorted(enumerate_span(R.rows, moduli))
            picks = [r_elems[rng.randrange(len(r_elems))] for _ in range(2)]
            S = howell_form(residue_matrix(picks, moduli))
            assert quotient_duality_check(S, R, G).ok


def space(*symbol_moduli):
    return SequenceSpace(tuple(FiniteAbelianGroup(m) for m in symbol_moduli))


class TestDualBlockCode:
    def test_even_weight_dual_is_repetition(self):
        sp = space((2,), (2,), (2,))
        even = code_from_generators(sp, [(1, 1, 0), (0, 1, 1)])
        dual = dual_block_code(even)
        assert sorted(dual.words()) == [(0, 0, 0), (1, 1, 1)]

    def test_full_ambient_dual_is_zero(self):
        sp = space((2,), (2,), (2,))
        full = code_from_generators(sp, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert dual_block_code(full).cardinality == 1

    def test_self_dual_diagonal(self):
        sp = space((2,), (2,))
        diag = code_from_generators(sp, [(1, 1)])
        assert dual_block_code(diag) == diag

    def test_involution_and_inclusion_reversal(self):
        rng = random.Random(47)
        sp = space((4,), (2,), (6,))
        for _ in range(40):
            a_gens = [
                [rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)
            ]
            a = code_from_generators(sp, a_gens)
            # b extends a, so dual(b) <= dual(a).
            b_gens = a_gens + [[rng.randrange(m) for m in sp.flat_moduli]]
            b = code_from_generators(sp, b_gens)
            assert dual_block_code(dual_block_code(a)) == a
            assert dual_block_code(b).is_subcode_of(dual_block_code(a))
