"""Trigonometric cyclic 4-polytopes, Gale's evenness condition, and polars.

The curve (cos u, sin u, cos 2u, sin 2u) is evaluated only at multiples of
pi/4, where every coordinate is 0, +-1 or +-sqrt(2)/2, so its points lie in
Q(sqrt 2); scaled by 2 they lie in Z[sqrt 2].  Hull, polar and orientation
geometry run on the points scaled to Z[sqrt 2] pairs (see
exactnum.clear_denominators) and use integer determinants only: one
chirotope pass gives the facets and, with the facet determinants, the
origin test, the polar vertices (Cramer's rule) and the vertex
orientations.  Sqrt2Number appears only at the input and in the output
vertices, which stay Fraction for rational point sets.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TypeAlias

from .complexes import (
    OrientationData, SimplePolytope, SimplicialComplex, cell_label, dualize, permutation_parity,
    swapped
)
from .errors import (
    DegeneracyError,
    FieldCoverageError,
    NonVertexError,
    PolarityError,
    RankError,
    RealizationInconsistencyError,
    ValidationError,
)
from .exactnum import (
    SQRT2_HALF_ROOT,
    SQRT2_ONE,
    SQRT2_ZERO,
    Z2,
    Sqrt2Number,
    as_ints,
    clear_denominators,
    det_z2,
    divide_z2,
    sign_z2,
)
from .values import Value

# cos at k*pi/4 for k = 0..7, and sin, which is cos a quarter turn earlier
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
_SIN = {k: _COS[(k - 2) % 8] for k in _COS}

# a string, so that typing caches no subscript holding this import's class
Vector: TypeAlias = "Tuple[Sqrt2Number, ...]"


class AngleSpec(Value):
    """Distinct, strictly increasing angles k*pi/4 with 0 <= k < 8."""

    _fields = ("eighth_turns",)

    def __init__(self, eighth_turns: Tuple[int, ...]):
        # the one place angles become ints, so a bool is kept as 0 or 1
        ks = as_ints(eighth_turns, "angles")
        if any(not 0 <= k < 8 for k in ks):
            raise FieldCoverageError(
                f"angles must be integer multiples k*pi/4 with 0 <= k < 8, got {ks}"
            )
        if any(a >= b for a, b in zip(ks, ks[1:])):
            raise ValidationError(f"angles must be strictly increasing, got {ks}")
        self.__dict__["eighth_turns"] = ks

    def __len__(self) -> int:
        return len(self.eighth_turns)


def caratheodory_point(eighth_turn: int) -> Vector:
    """Exact curve value (cos u, sin u, cos 2u, sin 2u) at u = k*pi/4."""
    k = eighth_turn
    if not isinstance(k, int) or not 0 <= k < 8:
        raise FieldCoverageError(f"angle {k}*pi/4 outside the supported range")
    k2 = (2 * k) % 8
    return (_COS[k], _SIN[k], _COS[k2], _SIN[k2])


class CaratheodoryRealization(Value):
    """Curve points at the given angles; vertex i is points[i-1]."""

    _fields = ("angles", "points")

    def __init__(self, angles: AngleSpec, points: Tuple[Vector, ...]):
        self.__dict__.update(angles=angles, points=points)

    @classmethod
    def of(cls, eighth_turns: Sequence[int]) -> "CaratheodoryRealization":
        angles = AngleSpec(tuple(eighth_turns))
        return cls(angles, tuple(caratheodory_point(k) for k in angles.eighth_turns))

    @property
    def n(self) -> int:
        return len(self.points)


def gale_facets(n: int, d: int = 4) -> List[Tuple[int, ...]]:
    """All d-subsets of {1..n} satisfying Gale's evenness condition.

    Y is kept iff for every pair i < j outside Y, the number of elements
    of Y strictly between i and j is even.  That holds iff every maximal run
    of consecutive labels in Y that contains neither 1 nor n has even
    length, which one scan of Y checks.  Output is lexicographic.
    """
    if d < 1:
        raise ValidationError(f"need d >= 1 for a cyclic polytope, got d={d}")
    if n <= d:
        raise ValidationError(f"need n > d for a cyclic polytope, got n={n}, d={d}")
    out = []
    for cand in combinations(range(1, n + 1), d):
        start = prev = cand[0]
        ok = True
        for y in cand[1:]:
            if y != prev + 1:
                # the run start..prev ends before n; odd is fatal unless it holds 1
                if start != 1 and (prev - start) % 2 == 0:
                    ok = False
                    break
                start = y
            prev = y
        if ok and (start == 1 or prev == n or (prev - start) % 2):
            out.append(cand)
    return out


def _lifted(points: Iterable[Vector]) -> Tuple[List[List[Z2]], bool]:
    """The rows (L p, L) in Z[sqrt 2], and whether any entry is a Sqrt2Number.
    Raises ValidationError when there are no points."""
    rows, scale, sqrt2 = clear_denominators(points)
    if not rows:
        raise ValidationError("no points: a hull needs at least one point")
    return [row + [(scale, 0)] for row in rows], sqrt2


def _hull(lifted: Sequence[List[Z2]]) -> Tuple[List[Tuple], Optional[List[Z2]]]:
    """One chirotope pass: (faces, dets) of the lifted points.

    faces lists (F, side, simplicial) for every d-subset F whose hyperplane
    supports the points, 1-based and in lexicographic order.  chi(S) is the
    sign of one determinant per (d+1)-subset S, and the affine functional
    through F read at q is det[F; q] = chi(F + q) (-1)^#{f in F: f > q}.  F
    is kept when those values take one nonzero sign, its side, and is
    simplicial when none is 0.  The functional reads det P_F at 0, so 0 is
    interior iff some face is kept and every det P_F has its side's sign;
    dets holds those det P_F then and is None otherwise.  Raises RankError
    when the points do not span the ambient space (no face is kept then).
    """
    n, d = len(lifted), len(lifted[0]) - 1
    chi = {
        s: sign_z2(det_z2([lifted[i] for i in s]))
        for s in combinations(range(n), d + 1)
    }
    faces = []
    for face in combinations(range(n), d):
        signs = set()
        for q in range(n):
            if q not in face:
                below = sum(1 for f in face if f < q)
                value = chi[face[:below] + (q,) + face[below:]]
                signs.add(value if (d - below) % 2 == 0 else -value)
        sides = signs - {0}
        if len(sides) == 1:
            faces.append((tuple(i + 1 for i in face), sides.pop(), 0 not in signs))
    if not faces and not any(
        det_z2([row[:d] for row in rows]) != (0, 0) for rows in combinations(lifted, d)
    ):
        raise RankError("points do not span the ambient space")
    dets = []
    for face, side, _ in faces:
        dets.append(det_z2([lifted[i - 1][:d] for i in face]))
        if sign_z2(dets[-1]) != side:
            return faces, None
    return faces, dets if faces else None


def contains_origin_interior(points: Iterable[Sequence]) -> bool:
    """Whether 0 lies in the interior of the convex hull of the points, exactly.

    Requires the points to span the ambient space (else RankError); 0 is
    interior iff it lies strictly on the inner side of every facet
    hyperplane of the hull.
    """
    return _hull(_lifted(points)[0])[1] is not None


class PolarPolytope(Value):
    """The polar dual: combinatorics, exact vertex coordinates, orientation.

    Facet i of the polar corresponds to primal point i; its supporting
    functional is <p_i, y> <= 1.  vertex_coords and orientation, the
    positively ordered facet tuple at each vertex, are aligned with
    polytope.vertices.
    """

    _fields = ("polytope", "vertex_coords", "facet_points", "orientation")

    def __init__(self, polytope: SimplePolytope, vertex_coords: Tuple[Vector, ...],
                 facet_points: Tuple[Vector, ...], orientation: OrientationData):
        self.__dict__.update(polytope=polytope, vertex_coords=vertex_coords,
                             facet_points=facet_points, orientation=orientation)


def build_polar_from_points(
    points: Iterable[Sequence],
    expected_facets: Optional[Sequence[Tuple[int, ...]]] = None,
) -> PolarPolytope:
    """Polar dual of conv(points) for points spanning R^d with 0 interior.

    The polar vertex dual to the facet with points P_F solves P_F u = 1: by
    Cramer's rule on the lifted rows, u_j = det(P_F, column j set to 1) /
    det P_F, converted once to a Sqrt2Number (a Fraction when every
    coordinate is rational).  At that vertex the edge leaving polar facet f
    is column f of -P_F^-1 times a positive diagonal matrix, so the edge
    vectors, in the sorted order of F, have determinant of sign
    (-1)^d det P_F.  The sorted tuple is therefore positively ordered when
    sign(det P_F) = (-1)^d and is otherwise `swapped`.
    Raises DegeneracyError when a facet holds more than d points (the
    polar is not simple) and NonVertexError when a point lies on no facet.
    When expected_facets is given the geometric facet list must match it.
    """
    pts: Tuple[Vector, ...] = tuple(tuple(p) for p in points)
    lifted, sqrt2 = _lifted(pts)
    d = len(lifted[0]) - 1
    kept, dets = _hull(lifted)
    if dets is None:
        raise PolarityError("origin is not interior; polar dual undefined")
    for face, _, simplicial in kept:
        if not simplicial:
            raise DegeneracyError(
                f"the facet through points {list(face)} holds more points; "
                "the polar is not simple"
            )
    facets = [face for face, _, _ in kept]
    if expected_facets is not None:
        if sorted(tuple(sorted(f)) for f in expected_facets) != facets:
            raise RealizationInconsistencyError(
                "geometric facets disagree with the combinatorial prediction"
            )
    missing = set(range(1, len(pts) + 1)).difference(*facets)
    if missing:
        raise NonVertexError(f"point {min(missing)} is not a vertex: it lies on no facet")
    coords, tuples = [], []
    for face, det in zip(facets, dets):
        rows = [lifted[i - 1] for i in face]
        coords.append(tuple(
            divide_z2(det_z2([row[:j] + row[d:] + row[j + 1 : d] for row in rows]), det, sqrt2)
            for j in range(d)
        ))
        positive = (sign_z2(det) > 0) == (d % 2 == 0)
        tuples.append(face if positive else swapped(face))
    # dualize keeps the facet order, so coords and tuples align with its vertices
    polytope = dualize(SimplicialComplex.of(len(pts), facets))
    return PolarPolytope(polytope, tuple(coords), pts, OrientationData(tuple(tuples)))


def build_polar(r: CaratheodoryRealization) -> PolarPolytope:
    """Polar dual of a Caratheodory realization, cross-checked against
    Gale's evenness condition."""
    return build_polar_from_points(r.points, gale_facets(r.n, 4))


@cache
def polar_of_angles(eighth_turns: Tuple[int, ...]) -> PolarPolytope:
    """build_polar of the realization at these angles, once per process.

    The key is the angle tuple, not the realization: hashing its
    Sqrt2Number points costs about as much as the rest of a cached call.
    The cache needs no size limit, since only the 93 subsets of {0..7}
    with 5 to 8 elements can yield a polar, and a failed build raises and
    is not cached.  The polar is frozen all the way down, so callers share
    it safely.
    """
    return build_polar(CaratheodoryRealization.of(eighth_turns))


class OrientationComparison(Value):
    """Outcome of comparing tuple families up to even permutation per tuple.

    case is "same" (every computed tuple an even permutation of its
    reference), "reversed" (every one odd: a single global reversal), or
    "mixed" (no global orientation explains the reference list).
    parities maps each vertex label to +1/-1.
    """

    _fields = ("case", "parities")

    def __init__(self, case: str, parities: Tuple[Tuple[str, int], ...]):
        self.__dict__.update(case=case, parities=parities)

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
        parities.append((cell_label(t), permutation_parity(t, ref_by_set[key])))
    values = {p for _, p in parities}
    if values == {1}:
        case = "same"
    elif values == {-1}:
        case = "reversed"
    else:
        case = "mixed"
    return OrientationComparison(case, tuple(parities))
