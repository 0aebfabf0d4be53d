"""Trigonometric cyclic 4-polytopes, Gale's evenness condition, and polars.

The curve (cos u, sin u, cos 2u, sin 2u) is evaluated only at multiples of
pi/4, where every coordinate is 0, +-1 or +-sqrt(2)/2, so its points lie in
Q(sqrt 2).  Hull, polar and orientation geometry run in the field of the
points: Q for rational point sets, Q(sqrt 2) for curve points.  One pass over
the supporting hyperplanes of the hull gives the facets, the origin test and
the polar vertices; the vertex orientations come from facet-point
determinants.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import OrientationData, SimplePolytope, SimplicialComplex, dualize
from .errors import (
    DegeneracyError,
    FieldCoverageError,
    PolarityError,
    RankError,
    RealizationInconsistencyError,
    ValidationError,
)
from .exactnum import (
    SQRT2_HALF_ROOT,
    SQRT2_ONE,
    SQRT2_ZERO,
    Sqrt2Number,
    det_field,
    matrix_rank,
    row_reduce,
)

# cos and sin at k*pi/4 for k = 0..7
_COS = {
    0: SQRT2_ONE,
    1: SQRT2_HALF_ROOT,
    2: SQRT2_ZERO,
    3: -SQRT2_HALF_ROOT,
    4: -SQRT2_ONE,
    5: -SQRT2_HALF_ROOT,
    6: SQRT2_ZERO,
    7: SQRT2_HALF_ROOT,
}
_SIN = {
    0: SQRT2_ZERO,
    1: SQRT2_HALF_ROOT,
    2: SQRT2_ONE,
    3: SQRT2_HALF_ROOT,
    4: SQRT2_ZERO,
    5: -SQRT2_HALF_ROOT,
    6: -SQRT2_ONE,
    7: -SQRT2_HALF_ROOT,
}

Vector = Tuple[Sqrt2Number, ...]


@dataclass(frozen=True)
class AngleSpec:
    """Distinct, strictly increasing angles k*pi/4 with 0 <= k < 8."""

    eighth_turns: Tuple[int, ...]

    def __post_init__(self):
        ks = self.eighth_turns
        if any(not isinstance(k, int) or not 0 <= k < 8 for k in ks):
            raise FieldCoverageError(
                f"angles must be integer multiples k*pi/4 with 0 <= k < 8, got {ks}"
            )
        if any(a >= b for a, b in zip(ks, ks[1:])):
            raise ValidationError(f"angles must be strictly increasing, got {ks}")

    def __len__(self) -> int:
        return len(self.eighth_turns)


def caratheodory_point(eighth_turn: int) -> Vector:
    """Exact curve value (cos u, sin u, cos 2u, sin 2u) at u = k*pi/4."""
    k = eighth_turn
    if not isinstance(k, int) or not 0 <= k < 8:
        raise FieldCoverageError(f"angle {k}*pi/4 outside the supported range")
    k2 = (2 * k) % 8
    return (_COS[k], _SIN[k], _COS[k2], _SIN[k2])


@dataclass(frozen=True)
class CaratheodoryRealization:
    """Curve points at the given angles; vertex i is points[i-1]."""

    angles: AngleSpec
    points: Tuple[Vector, ...]

    @classmethod
    def of(cls, eighth_turns: Sequence[int]) -> "CaratheodoryRealization":
        angles = AngleSpec(tuple(int(k) for k in eighth_turns))
        return cls(angles, tuple(caratheodory_point(k) for k in angles.eighth_turns))

    @property
    def n(self) -> int:
        return len(self.points)


def gale_facets(n: int, d: int = 4) -> List[Tuple[int, ...]]:
    """All d-subsets of {1..n} satisfying Gale's evenness condition.

    Y is kept iff for every pair i < j outside Y, the number of elements
    of Y strictly between i and j is even.  Output is lexicographic.
    """
    if n <= d:
        raise ValidationError(f"need n > d for a cyclic polytope, got n={n}, d={d}")
    out = []
    for cand in combinations(range(1, n + 1), d):
        cset = set(cand)
        outside = [i for i in range(1, n + 1) if i not in cset]
        ok = True
        for a, b in combinations(outside, 2):
            if sum(1 for y in cand if a < y < b) % 2:
                ok = False
                break
        if ok:
            out.append(cand)
    return out


def _affine_functional(points: Sequence[Vector]) -> Tuple[Vector, object]:
    """Hyperplane <a, x> + c = 0 through d affinely independent points in R^d.

    Returns (a, c), a nonzero kernel vector of the homogenized point matrix,
    in the field of the points.  Raises DegeneracyError when the points are
    affinely dependent.
    """
    d = len(points[0])
    if len(points) != d:
        raise DegeneracyError(f"need exactly {d} points, got {len(points)}")
    rows, pivots, _ = row_reduce([list(p) + [1] for p in points])
    if len(pivots) < d:
        raise DegeneracyError("points are affinely dependent")
    free = next(c for c in range(d + 1) if c not in pivots)
    # d pivots and one free column: every entry is set below, and a pivot
    # entry of the reduced rows is the field's 1
    kernel = [rows[0][pivots[0]]] * (d + 1)
    for r, col in enumerate(pivots):
        kernel[col] = -rows[r][free]
    return tuple(kernel[:d]), kernel[d]


def _supporting_hyperplane(points: Sequence[Vector], subset: Sequence[int]):
    """The hyperplane through the points of `subset` (1-based), if it supports.

    Returns (a, c, simplicial) scaled so that <a, p> + c >= 0 for every
    point, with some point off the hyperplane; simplicial is True when no
    point outside `subset` lies on it.  Returns None when points lie
    strictly on both sides, or all on the hyperplane.  Raises
    DegeneracyError when the subset is affinely dependent.
    """
    normal, offset = _affine_functional([points[i - 1] for i in subset])
    members = set(subset)
    values = [
        sum((a * x for a, x in zip(normal, q)), offset)
        for i, q in enumerate(points, start=1)
        if i not in members
    ]
    if any(v < 0 for v in values):
        if any(v > 0 for v in values):
            return None
        normal, offset, values = tuple(-a for a in normal), -offset, [-v for v in values]
    elif not any(v > 0 for v in values):
        return None
    return normal, offset, all(values)


def _supporting_hyperplanes(points: Sequence[Vector]) -> List[Tuple]:
    """(subset, a, c, simplicial) for every affinely independent d-subset
    whose hyperplane supports the points, subsets in lexicographic order."""
    kept = []
    for subset in combinations(range(1, len(points) + 1), len(points[0])):
        try:
            hyperplane = _supporting_hyperplane(points, subset)
        except DegeneracyError:
            continue
        if hyperplane is not None:
            kept.append((subset,) + hyperplane)
    return kept


def _origin_interior(hyperplanes: Sequence[Tuple]) -> bool:
    # each facet of a full-dimensional hull holds d affinely independent
    # points, so the kept hyperplanes are exactly the facet hyperplanes; and
    # there are none when the hull is not full-dimensional
    return bool(hyperplanes) and all(offset > 0 for _, _, offset, _ in hyperplanes)


def verify_facets_geometric(
    r: CaratheodoryRealization, candidate: Sequence[int]
) -> bool:
    """Exact supporting-hyperplane test for a candidate facet.

    Solves for the hyperplane through the candidate points and checks that
    every remaining point lies strictly on one common side.
    """
    hyperplane = _supporting_hyperplane(r.points, candidate)
    return hyperplane is not None and hyperplane[2]


def contains_origin_interior(r_or_points) -> bool:
    """Whether 0 lies in the interior of the convex hull, exactly.

    Requires the points to span the ambient space; decided by the supporting
    hyperplanes of the hull: 0 is interior iff it lies strictly on the inner
    side of every one.
    """
    points = r_or_points.points if isinstance(r_or_points, CaratheodoryRealization) else tuple(
        tuple(p) for p in r_or_points
    )
    if matrix_rank(points) < len(points[0]):
        raise RankError("points do not span the ambient space")
    return _origin_interior(_supporting_hyperplanes(points))


@dataclass(frozen=True)
class PolarPolytope:
    """The polar dual: combinatorics plus exact vertex coordinates.

    Facet i of the polar corresponds to primal point i; its supporting
    functional is <p_i, y> <= 1.  vertex_coords is aligned with
    polytope.vertices.
    """

    polytope: SimplePolytope
    vertex_coords: Tuple[Vector, ...]
    facet_points: Tuple[Vector, ...]


def build_polar_from_points(
    points: Sequence[Sequence],
    expected_facets: Optional[Sequence[Tuple[int, ...]]] = None,
) -> PolarPolytope:
    """Polar dual of conv(points) for points spanning R^d with 0 interior.

    One pass over all d-subsets finds the supporting hyperplanes
    <a, x> + c = 0 of the hull; the polar vertex dual to a facet is -a/c,
    where <u, p_i> = 1 on the facet's points.  Raises DegeneracyError when a
    facet holds more than d points (the polar is not simple).  When
    expected_facets is given the geometric facet list must match it.
    """
    pts: Tuple[Vector, ...] = tuple(tuple(p) for p in points)
    n = len(pts)
    hyperplanes = _supporting_hyperplanes(pts)
    if not _origin_interior(hyperplanes):
        if matrix_rank(pts) < len(pts[0]):
            raise RankError("points do not span the ambient space")
        raise PolarityError("origin is not interior; polar dual undefined")
    for subset, _, _, simplicial in hyperplanes:
        if not simplicial:
            raise DegeneracyError(
                f"the facet through points {list(subset)} holds more points; "
                "the polar is not simple"
            )
    facets = [subset for subset, _, _, _ in hyperplanes]
    if expected_facets is not None:
        if sorted(tuple(sorted(f)) for f in expected_facets) != facets:
            raise RealizationInconsistencyError(
                "geometric facets disagree with the combinatorial prediction"
            )
    polytope = dualize(SimplicialComplex.of(n, facets))
    dual_vertex = {}
    for subset, normal, offset, _ in hyperplanes:
        scale = -1 / offset
        dual_vertex[frozenset(subset)] = tuple(a * scale for a in normal)
    coords = tuple(dual_vertex[vertex] for vertex in polytope.vertices)
    return PolarPolytope(polytope, coords, pts)


def build_polar(r: CaratheodoryRealization) -> PolarPolytope:
    """Polar dual of a Caratheodory realization, cross-checked against
    Gale's evenness condition."""
    return build_polar_from_points(r.points, gale_facets(r.n, 4))


def vertex_orientation_tuples(p: PolarPolytope) -> OrientationData:
    """Positively ordered facet tuples at every vertex of the polar.

    At the vertex dual to the facet with points P (as rows, in sorted
    order), the edge leaving polar facet f is column f of -P^-1 times a
    positive diagonal matrix, so the edge vectors have determinant of sign
    (-1)^d det P.  The sorted tuple is kept when that sign is positive and
    otherwise permuted by one transposition.
    """
    d = len(p.facet_points[0])
    tuples = []
    for vertex in p.polytope.vertices:
        base = sorted(vertex)
        det = det_field([p.facet_points[i - 1] for i in base])
        if (det > 0) == (d % 2 == 0):
            tuples.append(tuple(base))
        else:
            tuples.append((base[1], base[0]) + tuple(base[2:]))
    return OrientationData(tuple(tuples))


def permutation_parity(src: Sequence[int], dst: Sequence[int]) -> int:
    """+1 if dst is an even permutation of src, -1 if odd."""
    if sorted(src) != sorted(dst):
        raise ValidationError(f"{dst} is not a permutation of {src}")
    perm = [list(dst).index(x) for x in src]
    parity = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity


@dataclass(frozen=True)
class OrientationComparison:
    """Outcome of comparing tuple families up to even permutation per tuple.

    case is "same" (every computed tuple an even permutation of its
    reference), "reversed" (every one odd: a single global reversal), or
    "mixed" (no global orientation explains the reference list).
    parities maps each vertex label to +1/-1.
    """

    case: str
    parities: Tuple[Tuple[str, int], ...]

    def minority(self) -> List[str]:
        """Labels carrying the minority parity (empty unless mixed)."""
        if self.case != "mixed":
            return []
        plus = [lbl for lbl, p in self.parities if p > 0]
        minus = [lbl for lbl, p in self.parities if p < 0]
        return minus if len(minus) <= len(plus) else plus


def compare_orientation_tuples(
    computed: OrientationData, reference: Sequence[Sequence[int]]
) -> OrientationComparison:
    """Compare computed tuples against a reference list, per-tuple parity."""
    ref_by_set: Dict[frozenset, Tuple[int, ...]] = {
        frozenset(t): tuple(t) for t in reference
    }
    if len(ref_by_set) != len(computed.tuples):
        raise ValidationError("reference does not cover the computed vertex set")
    parities = []
    for t in computed.tuples:
        key = frozenset(t)
        if key not in ref_by_set:
            raise ValidationError(f"tuple {t} has no reference counterpart")
        label = "".join(str(i) for i in sorted(t))
        parities.append((label, permutation_parity(t, ref_by_set[key])))
    values = {p for _, p in parities}
    if values == {1}:
        case = "same"
    elif values == {-1}:
        case = "reversed"
    else:
        case = "mixed"
    return OrientationComparison(case, tuple(parities))
