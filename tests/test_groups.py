"""Tests for finite abelian group primitives."""

import math

import pytest

from groupcodes.groups import (
    FiniteAbelianGroup,
    GroupElement,
    element_order,
    height,
    primary_decomposition,
    socle,
)
from groupcodes.linalg import span_cardinality

from .test_linalg import enumerate_span


class TestElementOrder:
    def test_identity(self):
        for moduli in [(5,), (2, 3), (4, 4, 4)]:
            G = FiniteAbelianGroup(moduli)
            assert element_order(G.zero()) == 1

    def test_two_in_z4(self):
        G = FiniteAbelianGroup((4,))
        assert element_order(G.element((2,))) == 2

    def test_mixed_coordinates(self):
        G = FiniteAbelianGroup((2, 3))
        g = G.element((1, 1))
        # Iterate additions until zero returns 6.
        acc = g
        n = 1
        while not acc.is_zero():
            acc = acc + g
            n += 1
        assert n == 6
        assert element_order(g) == 6

    def test_order_divides_exponent(self):
        G = FiniteAbelianGroup((4, 6, 9))
        for g in G.elements():
            assert G.exponent % element_order(g) == 0


class TestPrimaryDecomposition:
    def test_z6_splits(self):
        G = FiniteAbelianGroup((6,))
        parts = primary_decomposition(G)
        assert sorted(parts) == [2, 3]
        assert parts[2].group.moduli == (2,)
        assert parts[3].group.moduli == (3,)
        one = G.element((1,))
        assert parts[2].project(one).residues == (1,)
        assert parts[3].project(one).residues == (1,)

    def test_z12_plus_z2(self):
        G = FiniteAbelianGroup((12, 2))
        parts = primary_decomposition(G)
        assert parts[2].group.moduli == (4, 2)
        assert parts[3].group.moduli == (3, 1)
        assert parts[2].group.cardinality * parts[3].group.cardinality == 24

    def test_already_primary(self):
        G = FiniteAbelianGroup((5,))
        parts = primary_decomposition(G)
        assert list(parts) == [5]
        assert parts[5].group.moduli == (5,)

    def test_round_trip_all_elements(self):
        for moduli in [(6,), (12, 2), (4, 9), (2, 3, 5)]:
            G = FiniteAbelianGroup(moduli)
            parts = primary_decomposition(G)
            for g in G.elements():
                for comp in parts.values():
                    assert comp.project(comp.embed(comp.project(g))) == comp.project(g)
                total = G.zero()
                for comp in parts.values():
                    total = total + comp.embed(comp.project(g))
                assert total == g


class TestHeight:
    def test_zero_has_infinite_height(self):
        G = FiniteAbelianGroup((4, 9))
        assert height(G.zero(), 2) == math.inf
        assert height(G.zero(), 3) == math.inf

    def test_two_in_z4(self):
        G = FiniteAbelianGroup((4,))
        assert height(G.element((2,)), 2) == 1

    def test_mixed_group(self):
        G = FiniteAbelianGroup((2, 4))
        assert height(G.element((0, 2)), 2) == 1

    @pytest.mark.parametrize(
        "moduli, p", [((2, 4, 8), 2), ((6, 4, 9), 2), ((6, 4, 9), 3)]
    )
    def test_matches_enumeration(self, moduli, p):
        G = FiniteAbelianGroup(moduli)
        for g in G.elements():
            pow_p = 1
            h = 0
            while h <= 4:
                pow_p_next = pow_p * p
                solvable = any((x * pow_p_next) == g for x in G.elements())
                if not solvable:
                    break
                pow_p = pow_p_next
                h += 1
            expected = math.inf if h > 3 else h
            got = height(g, p)
            if expected == math.inf:
                assert got == math.inf
            else:
                assert got == expected

    def test_monotone_under_multiplication(self):
        G = FiniteAbelianGroup((8, 4))
        for g in G.elements():
            if g.is_zero() or (2 * g).is_zero():
                continue
            assert height(2 * g, 2) >= height(g, 2) + 1

    def test_rejects_composite(self):
        G = FiniteAbelianGroup((4,))
        with pytest.raises(ValueError):
            height(G.element((1,)), 4)


class TestSocle:
    def test_exponent_two_group(self):
        G = FiniteAbelianGroup((2, 2))
        sub, dim = socle(G, 2)
        assert dim == 2
        assert span_cardinality(sub) == 4

    def test_z4(self):
        G = FiniteAbelianGroup((4,))
        sub, dim = socle(G, 2)
        assert dim == 1
        assert enumerate_span(sub.rows, (4,)) == {(0,), (2,)}

    def test_coprime_prime(self):
        G = FiniteAbelianGroup((3,))
        sub, dim = socle(G, 2)
        assert dim == 0
        assert sub.rows == ()

    def test_socle_cardinality(self):
        G = FiniteAbelianGroup((4, 6, 9))
        for p in (2, 3):
            sub, dim = socle(G, p)
            assert span_cardinality(sub) == p**dim

    def test_socle_dims_count_invariant_factors(self):
        # The socle dimension of (G)_p counts the invariant factors of G
        # that p divides, i.e. the nontrivial invariant factors of (G)_p.
        from groupcodes.linalg import residue_matrix, smith_invariants

        for moduli in [(4, 6), (2, 2, 3), (12, 2), (8, 9, 5)]:
            G = FiniteAbelianGroup(moduli)
            gens = residue_matrix(
                [[1 if k == j else 0 for k in range(len(moduli))] for j in range(len(moduli))],
                moduli,
            )
            factors = smith_invariants(gens)
            for p in G.primes():
                comp = primary_decomposition(G)[p].group
                _, dim = socle(comp, p)
                assert dim == len([f for f in factors if f % p == 0])


class TestWidthChecks:
    @pytest.mark.parametrize("residues", [(1,), (1, 2, 0)])
    def test_element_rejects_wrong_width(self, residues):
        with pytest.raises(ValueError):
            GroupElement(FiniteAbelianGroup((2, 4)), residues)


class TestListBuilt:
    """Groups and elements built from lists equal, hash and add like the
    tuple-built ones."""

    def test_group_from_a_list(self):
        G = FiniteAbelianGroup([2, 4])
        assert G == FiniteAbelianGroup((2, 4))
        assert hash(G) == hash(FiniteAbelianGroup((2, 4)))
        assert G.moduli == (2, 4)

    def test_element_from_a_list(self):
        G, H = FiniteAbelianGroup([2, 4]), FiniteAbelianGroup((2, 4))
        g = GroupElement(G, [1, 3])
        assert g == H.element((1, 3)) and hash(g) == hash(H.element((1, 3)))
        assert g + H.element((1, 1)) == H.zero()
