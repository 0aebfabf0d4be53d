"""Simplicial cones from characteristic vectors and exact fan properness.

Overlap of cone interiors is decided in two exact steps, no epsilons
anywhere.  An integer scan of each cone's facet normals against the other
cone's generators settles most pairs, separated or with the sum of one
cone's generators as the witness ray.  Only the pairs left reach an exact
LP for a positive vector (x, y) in the kernel of [A | -B], that is
A x = B y with x, y > 0.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import index, mul
from typing import Dict, List, Optional, Sequence, Tuple

from .charmap import CharacteristicMap, _check_coverage
from .complexes import CellTable
from .errors import ConeDegeneracyError, ValidationError
from .exactnum import adjugate, as_ints, strict_feasibility
from .values import Value


class SimplicialCone(Value):
    """A full-dimensional simplicial cone; generators are the columns.

    normals is S = sgn(det G) adj(G) for the generator matrix G: row r is
    the inner normal of the facet opposite generator r, positive on that
    generator and zero on the rest.  multiplicity is |det G|, so that
    G^-1 = S / multiplicity.  The cone is compared and printed by its
    generators only, so its memo of products S g, keyed by the generator g
    of another cone and filled by the facet scan, changes neither.
    """

    _fields = ("generators",)

    def __init__(self, generators: Tuple[Tuple[int, ...], ...]):
        n = len(generators)
        if any(len(g) != n for g in generators):
            raise ValidationError("cone generators must be n vectors in Z^n")
        self.__dict__["generators"] = generators
        adj, det = adjugate(self.matrix_rows())
        if det == 0:
            raise ConeDegeneracyError(f"generators {generators} are linearly dependent")
        sign = 1 if det > 0 else -1
        self.__dict__.update(normals=tuple(tuple(sign * x for x in r) for r in adj),
                             multiplicity=abs(det), _products={})

    @classmethod
    def of(cls, generators: Sequence[Sequence[int]]):
        return cls(tuple(as_ints(g, "cone generators") for g in generators))

    @property
    def dim(self) -> int:
        return len(self.generators)

    def matrix_rows(self) -> List[List[int]]:
        """Rows of the generator matrix (generators as columns)."""
        n = self.dim
        return [[self.generators[j][i] for j in range(n)] for i in range(n)]


def cone_membership(
    c: SimplicialCone, point: Sequence
) -> Tuple[bool, bool, Tuple[Fraction, ...]]:
    """Exact coefficients of a point in the cone basis.

    Returns (inside, strictly_inside, coefficients) where G x = point.  The
    point's entries must be ints (a bool counts as 0 or 1) or Fractions.
    """
    n = c.dim
    if len(point) != n:
        raise ValidationError("point dimension does not match the cone")
    try:
        p = [x if isinstance(x, Fraction) else index(x) for x in point]
    except TypeError as exc:
        raise ValidationError(f"point must be integers or Fractions: {exc}") from None
    # G x = point, so x = S point / |det G|; exact for any point
    coeffs = tuple(
        Fraction(sum(s * x for s, x in zip(row, p)), c.multiplicity) for row in c.normals
    )
    inside = all(x >= 0 for x in coeffs)
    interior = all(x > 0 for x in coeffs)
    return inside, interior, coeffs


def _facet_products(c: SimplicialCone, g: Tuple[int, ...]) -> Tuple[int, ...]:
    """S g, one product per facet normal of c."""
    return tuple(sum(map(mul, row, g)) for row in c.normals)


def _scan(x: SimplicialCone, y: SimplicialCone) -> Optional[bool]:
    """S_y X row by row, where the interior of y is {p : S_y p > 0}: None at
    the first row with no positive entry, a facet of y that separates the
    interiors (sound, not complete), else whether S_y X 1 > 0, that is
    whether X 1, strictly inside x, is strictly inside y as well.  y keeps
    S_y g for each generator g it has met, so a cone of a fan computes its
    products with each distinct generator once."""
    memo = y._products
    columns = []
    for g in x.generators:
        column = memo.get(g)
        if column is None:
            column = memo[g] = _facet_products(y, g)
        columns.append(column)
    interior = True
    for dots in zip(*columns):
        if max(dots) <= 0:
            return None
        if sum(dots) <= 0:
            interior = False
    return interior


def cones_overlap_interior(
    a: SimplicialCone, b: SimplicialCone
) -> Tuple[bool, Optional[Tuple[Fraction, ...]]]:
    """Whether the two cone interiors share a ray; returns a witness ray.

    Decides existence of x, y > 0 with A x = B y exactly; an overlap (an
    improper intersection) comes with a witness ray.  The scans of S_B A and
    S_A B decide a separated pair, or one whose witness is A 1 (tried first)
    or B 1; the LP decides the rest, with witness A x.
    """
    n = a.dim
    if b.dim != n:
        raise ValidationError("cones live in different dimensions")
    a_in_b = _scan(a, b)
    b_in_a = None if a_in_b is None else _scan(b, a)
    if b_in_a is None:
        return False, None
    if a_in_b or b_in_a:
        x = a if a_in_b else b
        return True, tuple(Fraction(sum(coords)) for coords in zip(*x.generators))
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
                {"pair": (i, j), "reason": "adjacent cones do not share a common ridge"}
            )
    for i, j in combinations(range(1, len(cones) + 1), 2):
        overlap, ray = cones_overlap_interior(cones[i - 1], cones[j - 1])
        if overlap:
            offenders.append(
                {"pair": (i, j), "reason": "interior overlap", "witness_ray": ray}
            )
    return (not offenders, offenders)


def cones_from_charmap(
    structure: CellTable, cm: CharacteristicMap
) -> Tuple[List[SimplicialCone], List[Tuple[int, int]]]:
    """One cone per cell (generators = its vectors in carrier order), and the
    sorted 1-based pairs of cells that share a ridge."""
    _check_coverage(structure, cm)
    cones = [SimplicialCone(tuple(cm.vectors[i - 1] for i in t)) for t in structure.ordered]
    adjacency = sorted(
        (a + 1, b + 1)
        for owners in structure.ridges.values() for a, b in combinations(owners, 2)
    )
    return cones, adjacency
