"""Reference twins of library kernels, kept for tests and timing only.

* ``integer_smith_diagonal``: the Smith diagonal of an integer matrix.
* ``smith_quotient_invariants``: invariant factors of a quotient by the
  integer Smith normal form of its relation lattice, the route
  ``linalg.quotient_invariants`` took before it counted on Howell forms.
* ``loop_pairs_to_zero``: the pairing test residue by residue, the loop
  ``duality.pairs_to_zero`` ran before it folded the weights into x.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence

from groupcodes import linalg
from groupcodes.linalg import ResidueMatrix, howell_form


def integer_smith_diagonal(rows: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Entries are nonnegative with each dividing the next.  For a relation
    matrix this diagonal presents the cokernel.
    """
    mat = [list(map(int, row)) for row in rows]
    diag, _ = linalg._smith_with_left_inverse(mat, track=False)
    return diag


def smith_quotient_invariants(
    numerator: ResidueMatrix, denominator_rows: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    """Invariant factors of (span(numerator) + D) / D by Smith: the nonunit
    diagonal entries of the relations among the numerator's Howell rows
    modulo D."""
    canon = howell_form(numerator)
    if not canon.rows:
        return ()
    den = [linalg._reduced(row, canon.moduli) for row in denominator_rows]
    lattice = linalg._relation_lattice(canon.rows, den, canon.moduli)
    diag, _ = linalg._smith_with_left_inverse(lattice, track=False)
    return tuple(sorted(d for d in diag if d not in (0, 1)))


def loop_pairs_to_zero(
    xs: Sequence[Sequence[int]], ys: Sequence[Sequence[int]], moduli: Sequence[int]
) -> bool:
    """Whether every x pairs to zero with every y, one residue at a time."""
    L = lcm(*moduli)
    weighted = [[e * (L // m) for e, m in zip(x, moduli)] for x in xs]
    return all(
        sum(a * b for a, b in zip(x, y)) % L == 0 for y in ys if any(y) for x in weighted
    )
