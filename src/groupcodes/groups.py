"""Finite abelian groups: elements, orders, primary parts, heights, socles.

A group is an ordered list of cyclic moduli; elements are residue vectors.
Trivial factors (modulus 1) are allowed and behave as always-zero
coordinates, which keeps index arithmetic uniform across sequence spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import lcm
from typing import Iterator, Sequence

from .linalg import (
    ResidueMatrix,
    howell_form,
    primary_part,
    prime_factors,
    residue_matrix,
    vector_order,
)

__all__ = [
    "FiniteAbelianGroup",
    "GroupElement",
    "PrimaryComponent",
    "element_order",
    "primary_decomposition",
    "primary_part",
    "height",
    "socle",
    "prime_factors",
]


def _is_prime(p: int) -> bool:
    return p >= 2 and prime_factors(p) == [p]


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct sum of cyclic groups Z/m_1 + ... + Z/m_n; the moduli are
    held as a tuple of ints whatever sequence is passed."""

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "moduli", tuple(map(int, self.moduli)))
        if any(m < 1 for m in self.moduli):
            raise ValueError("moduli must be >= 1")

    @property
    def cardinality(self) -> int:
        return math.prod(self.moduli)

    @property
    def exponent(self) -> int:
        return lcm(*self.moduli) if self.moduli else 1

    def element(self, residues: Sequence[int]) -> "GroupElement":
        if len(residues) != len(self.moduli):
            raise ValueError("residue vector length mismatch")
        return GroupElement(self, tuple(int(e) % m for e, m in zip(residues, self.moduli)))

    def zero(self) -> "GroupElement":
        return GroupElement(self, tuple(0 for _ in self.moduli))

    def elements(self) -> Iterator["GroupElement"]:
        """All elements, in lexicographic residue order."""
        import itertools

        for residues in itertools.product(*[range(m) for m in self.moduli]):
            yield GroupElement(self, residues)

    def primes(self) -> list[int]:
        """The primes dividing the group order, factored modulus by modulus."""
        return sorted({p for m in set(self.moduli) for p in prime_factors(m)})

    def __str__(self) -> str:
        if not self.moduli:
            return "0"
        return " + ".join(f"Z/{m}" for m in self.moduli)


@dataclass(frozen=True)
class GroupElement:
    """A residue vector in its parent group, held as a tuple of ints."""

    group: FiniteAbelianGroup
    residues: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "residues", tuple(map(int, self.residues)))
        if len(self.residues) != len(self.group.moduli):
            raise ValueError("residue vector length mismatch")
        if any(not 0 <= e < m for e, m in zip(self.residues, self.group.moduli)):
            raise ValueError("residue out of range")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(
            self.group,
            tuple(
                (a + b) % m
                for a, b, m in zip(self.residues, other.residues, self.group.moduli)
            ),
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(
            self.group,
            tuple((-a) % m for a, m in zip(self.residues, self.group.moduli)),
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __mul__(self, scalar: int) -> "GroupElement":
        return GroupElement(
            self.group,
            tuple((scalar * a) % m for a, m in zip(self.residues, self.group.moduli)),
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.residues)

    def _check(self, other: "GroupElement") -> None:
        if other.group.moduli != self.group.moduli:
            raise ValueError("elements from different groups")


def element_order(g: GroupElement) -> int:
    """Least n >= 1 with n*g = 0; equals lcm_j(m_j / gcd(m_j, g_j))."""
    return vector_order(g.residues, g.group.moduli)


@dataclass(frozen=True)
class PrimaryComponent:
    """One primary part (G)_p with its projection and embedding maps."""

    prime: int
    group: FiniteAbelianGroup
    parent: FiniteAbelianGroup
    # Per coordinate: the ``primary_part`` pair (q, u).
    _crt: tuple[tuple[int, int], ...] = field(repr=False)

    def project(self, g: GroupElement) -> GroupElement:
        if g.group != self.parent:
            raise ValueError("element not in the parent group")
        return self.group.element([e % q for e, (q, _) in zip(g.residues, self._crt)])

    def embed(self, c: GroupElement) -> GroupElement:
        if c.group != self.group:
            raise ValueError("element not in the component group")
        return self.parent.element([e * u for e, (_, u) in zip(c.residues, self._crt)])


def primary_decomposition(G: FiniteAbelianGroup) -> dict[int, PrimaryComponent]:
    """The primary parts (G)_p for each prime p dividing |G|.

    Projection and embedding are mutually inverse on each part, and summing
    the embeddings of all projections reconstructs the element.
    """
    components: dict[int, PrimaryComponent] = {}
    for p in G.primes():
        crt = tuple(primary_part(m, p) for m in G.moduli)
        components[p] = PrimaryComponent(
            prime=p,
            group=FiniteAbelianGroup(tuple(q for q, _ in crt)),
            parent=G,
            _crt=crt,
        )
    return components


def height(g: GroupElement, p: int) -> int | float:
    """Largest h such that p^h * x = g is solvable; math.inf if all h work.

    Solvability of ``p^h x = g_j (mod m_j)`` per coordinate amounts to
    ``gcd(p^h, m_j)`` dividing ``g_j``, so the height is the minimum of
    ``v_p(g_j)`` over coordinates where that valuation is below ``v_p(m_j)``,
    that is where ``g_j`` is nonzero modulo the p-part ``q`` of ``m_j``
    (``primary_part``).
    The height is infinite exactly when the p-primary part of g vanishes;
    inside a p-group that means g = 0.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    bound = math.inf
    for e, m in zip(g.residues, g.group.moduli):
        q, _ = primary_part(m, p)
        if e % q == 0:
            continue
        ve = 0
        while e % p == 0:
            ve += 1
            e //= p
        bound = min(bound, ve)
    return bound


def socle(G: FiniteAbelianGroup, p: int) -> tuple[ResidueMatrix, int]:
    """G[p] = {g : p*g = 0} as a canonical subgroup, with its Z/p dimension."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    rows = []
    dim = 0
    n = len(G.moduli)
    for j, m in enumerate(G.moduli):
        if m % p == 0:
            dim += 1
            rows.append([m // p if k == j else 0 for k in range(n)])
    return howell_form(residue_matrix(rows, G.moduli)), dim
