"""Characters, pairings, annihilators and quotient duality.

The circle group is modeled additively by its rational torsion Q/Z with
exact integer arithmetic (each value a reduced numerator and denominator,
with no ``Fraction``), so orthogonality of x and chi reads
pairing(x, chi) = 0.
The dual of Z/m_1 + ... + Z/m_n is identified with the same group via the
standard pairing sum_j x_j chi_j / m_j; finite abelian groups are self-dual
and nothing downstream depends on the choice of identification.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .codes import BlockCode
from .groups import FiniteAbelianGroup, GroupElement
from .linalg import (
    ResidueMatrix,
    annihilator_rows,
    contains_vector,
    quotient_invariants,
)

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "QmodZ",
    "Character",
    "pairing",
    "annihilator",
    "quotient_duality_check",
    "QuotientDualityReport",
    "dual_block_code",
]


@dataclass(frozen=True)
class QmodZ:
    """A rational residue modulo 1, kept reduced with 0 <= num < den."""

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator < 1:
            raise ValueError("denominator must be positive")
        g = gcd(self.numerator, self.denominator)
        if g != 1 or not 0 <= self.numerator < self.denominator:
            raise ValueError("not in canonical form; use QmodZ.of")

    @classmethod
    def of(cls, value: Fraction | int) -> "QmodZ":
        """The residue of an ``int`` or a ``Fraction``, read through its
        ``numerator`` and ``denominator``."""
        return cls._reduced(value.numerator, value.denominator)

    @classmethod
    def _reduced(cls, numerator: int, denominator: int) -> "QmodZ":
        """numerator / denominator modulo 1, denominator > 0, in lowest terms."""
        numerator %= denominator
        g = gcd(numerator, denominator)
        return cls(numerator // g, denominator // g)

    @classmethod
    def zero(cls) -> "QmodZ":
        return cls(0, 1)

    def __add__(self, other: "QmodZ") -> "QmodZ":
        a, b, c, d = self.numerator, self.denominator, other.numerator, other.denominator
        return QmodZ._reduced(a * d + c * b, b * d)

    def __neg__(self) -> "QmodZ":
        return QmodZ._reduced(-self.numerator, self.denominator)

    def __mul__(self, scalar: int) -> "QmodZ":
        return QmodZ._reduced(scalar * self.numerator, self.denominator)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.numerator == 0

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


@dataclass(frozen=True)
class Character:
    """A character of a finite abelian group, as a dual-group element."""

    coefficients: GroupElement

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.coefficients.group


def pairing(x: GroupElement, chi: Character | GroupElement) -> QmodZ:
    """The standard pairing sum_j x_j chi_j / m_j taken modulo 1, summed
    over the common denominator L = lcm(m_j) as sum_j x_j chi_j (L/m_j)."""
    coeffs = chi.coefficients if isinstance(chi, Character) else chi
    moduli = x.group.moduli
    if coeffs.group.moduli != moduli:
        raise ValueError("element and character moduli mismatch")
    L = lcm(*moduli)
    total = sum(a * b * (L // m) for a, b, m in zip(x.residues, coeffs.residues, moduli))
    return QmodZ._reduced(total, L)


def pairs_to_zero(
    xs: Sequence[Sequence[int]], ys: Sequence[Sequence[int]], moduli: Sequence[int]
) -> bool:
    """Whether every x pairs to zero with every y: sum_j x_j y_j / m_j = 0
    modulo 1, read over the common denominator L = lcm(m_j) as
    sum_j x_j (L/m_j) y_j = 0 mod L.

    The weights L/m_j are folded into the x rows once per call, and not at
    all when every m_j is L; each pair is then one ``map`` of products
    summed in C, over the columns of x, so a y row may run past them.
    """
    if not xs or not ys:
        return True
    L = lcm(*moduli)
    if any(m != L for m in moduli):
        weights = [L // m for m in moduli]
        xs = [list(map(mul, x, weights)) for x in xs]
    for y in ys:
        for x in xs:
            if sum(map(mul, x, y)) % L:
                return False
    return True


def is_annihilator(
    x_rows: Sequence[Sequence[int]],
    x_order: int,
    y_rows: Sequence[Sequence[int]],
    y_order: int,
    moduli: Sequence[int],
) -> bool:
    """Whether X = Y-perp, for X and Y of orders ``x_order`` and ``y_order``
    spanned by ``x_rows`` and ``y_rows``: pairing to zero puts X inside
    Y-perp, which has order |G| / |Y|, so |X| · |Y| = |G| makes them equal."""
    counted = x_order * y_order == prod(moduli)
    return counted and pairs_to_zero(x_rows, y_rows, moduli)


def annihilator(subgroup: ResidueMatrix) -> ResidueMatrix:
    """All characters pairing to zero with every element of the subgroup.

    Satisfies |H| * |H-perp| = |G| and (H-perp)-perp = H.
    """
    return annihilator_rows(subgroup)


@dataclass(frozen=True)
class QuotientDualityReport:
    """Comparison of the invariant factors of R/S and of S-perp/R-perp."""

    quotient_factors: tuple[int, ...]
    annihilator_quotient_factors: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.quotient_factors == self.annihilator_quotient_factors

    def render(self) -> str:
        status = "match" if self.ok else "MISMATCH"
        return (
            f"quotient R/S factors:        {list(self.quotient_factors)}\n"
            f"annihilator quotient factors: {list(self.annihilator_quotient_factors)}\n"
            f"verdict: {status}"
        )


def quotient_duality_check(
    S: ResidueMatrix, R: ResidueMatrix, G: FiniteAbelianGroup
) -> QuotientDualityReport:
    """Check that R/S and S-perp/R-perp share their invariant factors.

    Requires S <= R <= G; a factor mismatch would signal a library bug, so
    the report is meant for cross-checking rather than discovery.
    """
    if S.moduli != G.moduli or R.moduli != G.moduli:
        raise ValueError("subgroups must be given over the group moduli")
    for row in S.rows:
        if not contains_vector(R, row):
            raise ValueError("S is not contained in R")
    quotient = quotient_invariants(R, S.rows)
    s_perp = annihilator(S)
    r_perp = annihilator(R)
    dual_quotient = quotient_invariants(s_perp, r_perp.rows)
    return QuotientDualityReport(quotient, dual_quotient)


def dual_block_code(code: BlockCode) -> BlockCode:
    """The annihilator of a block code inside the dual sequence space.

    At finite horizon the dual of a product is the product of the duals, so
    the dual code lives over the same symbol moduli; the construction is an
    inclusion-reversing involution.  It is the code's local dual, one
    kernel of its Howell rows, kept on the code.
    """
    return code._local_dual
