"""Simplicial cones from characteristic vectors and exact fan properness.

Overlap of cone interiors is decided by an exact LP for a positive vector
(x, y) in the kernel of [A | -B], that is A x = B y with x, y > 0; no
epsilons anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .charmap import CharacteristicMap, Structure, _check_coverage, cells_of
from .errors import ConeDegeneracyError, ValidationError
from .exactnum import adjugate, det_int, strict_feasibility


@dataclass(frozen=True)
class SimplicialCone:
    """A full-dimensional simplicial cone; generators are the columns."""

    generators: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.generators)
        if any(len(g) != n for g in self.generators):
            raise ValidationError("cone generators must be n vectors in Z^n")
        if self.det() == 0:
            raise ConeDegeneracyError(
                f"generators {self.generators} are linearly dependent"
            )

    @classmethod
    def of(cls, generators: Sequence[Sequence[int]]):
        return cls(tuple(tuple(int(x) for x in g) for g in generators))

    @property
    def dim(self) -> int:
        return len(self.generators)

    def det(self) -> int:
        # generators as rows: the transpose, with the same determinant
        return det_int(self.generators)

    def matrix_rows(self) -> List[List[int]]:
        """Rows of the generator matrix (generators as columns)."""
        n = self.dim
        return [[self.generators[j][i] for j in range(n)] for i in range(n)]


def cone_membership(
    c: SimplicialCone, point: Sequence
) -> Tuple[bool, bool, Tuple[Fraction, ...]]:
    """Exact coefficients of a point in the cone basis.

    Returns (inside, strictly_inside, coefficients) where G x = point.
    """
    n = c.dim
    if len(point) != n:
        raise ValidationError("point dimension does not match the cone")
    # G x = point, so x = adj(G) point / det(G); exact for any point
    adj, det = adjugate(c.matrix_rows())
    p = [Fraction(x) for x in point]
    coeffs = tuple(sum(a * x for a, x in zip(row, p)) / det for row in adj)
    inside = all(x >= 0 for x in coeffs)
    interior = all(x > 0 for x in coeffs)
    return inside, interior, coeffs


def cones_overlap_interior(
    a: SimplicialCone, b: SimplicialCone
) -> Tuple[bool, Optional[Tuple[Fraction, ...]]]:
    """Whether the two cone interiors share a ray; returns a witness ray.

    Decides existence of x, y > 0 with A x = B y exactly.  A witness ray
    A x is returned when the interiors overlap (an improper intersection).
    """
    n = a.dim
    if b.dim != n:
        raise ValidationError("cones live in different dimensions")
    arows = a.matrix_rows()
    # (x, y) > 0 in the kernel of [A | -B]
    witness = strict_feasibility(
        [ra + [-x for x in rb] for ra, rb in zip(arows, b.matrix_rows())]
    )
    if witness is None:
        return False, None
    # integer data, so the LP ran over Q and the witness ray is rational
    x = witness[:n]
    return True, tuple(sum(g * xj for g, xj in zip(row, x)) for row in arows)


def fan_properness(
    cones: Sequence[SimplicialCone],
    adjacency: Optional[Sequence[Tuple[int, int]]] = None,
) -> Tuple[bool, List[Dict]]:
    """Pairwise properness of a cone family.

    Fails on any pair with interior overlap; pairs declared adjacent (1-based
    positions sharing a ridge) must additionally share exactly dim-1
    generator vectors.  Completeness is deliberately not decided.
    """
    offenders: List[Dict] = []
    n = cones[0].dim if cones else 0
    adjacency = adjacency or []
    for i, j in adjacency:
        shared = set(cones[i - 1].generators) & set(cones[j - 1].generators)
        if len(shared) != n - 1:
            offenders.append(
                {
                    "pair": (i, j),
                    "reason": "adjacent cones do not share a common ridge",
                    "shared_generators": sorted(shared),
                }
            )
    for i, j in combinations(range(1, len(cones) + 1), 2):
        overlap, ray = cones_overlap_interior(cones[i - 1], cones[j - 1])
        if overlap:
            offenders.append(
                {"pair": (i, j), "reason": "interior overlap", "witness_ray": ray}
            )
    return (not offenders, offenders)


def cones_from_charmap(
    structure: Structure, cm: CharacteristicMap
) -> Tuple[List[SimplicialCone], List[Tuple[int, int]]]:
    """One cone per cell (generators = its vectors) plus ridge adjacency."""
    _check_coverage(structure, cm)
    cells = cells_of(structure)
    cones = [
        SimplicialCone.of([cm.vector(i) for i in sorted(cell)]) for cell in cells
    ]
    n = cones[0].dim
    adjacency = [
        (i, j)
        for i, j in combinations(range(1, len(cells) + 1), 2)
        if len(cells[i - 1] & cells[j - 1]) == n - 1
    ]
    return cones, adjacency

