"""Tests for the trigonometric cyclic polytope machinery."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

import qtoric.cyclic
import qtoric.exactnum
from qtoric.cyclic import (
    CaratheodoryRealization,
    build_polar,
    build_polar_from_points,
    caratheodory_point,
    compare_orientation_tuples,
    contains_origin_interior,
    gale_facets,
    permutation_parity,
    polar_of_angles,
)
from qtoric.complexes import OrientationData
from qtoric.errors import (
    DegeneracyError,
    FieldCoverageError,
    NonVertexError,
    PolarityError,
    QtoricError,
    RankError,
    RealizationInconsistencyError,
    ValidationError,
)
from qtoric.exactnum import SQRT2_ZERO, Sqrt2Number, strict_feasibility
from qtoric.fixtures import D47_ANGLES, D47_REFERENCE_TUPLES, d47_orientation, d47_polar

from field_oracle import det_field, hyperplane_polar, matrix_rank, sign, supporting_hyperplane
from test_golden_cyclic import angle_subsets

HALF_ROOT = Sqrt2Number.of(0, Fraction(1, 2))
ONE = Sqrt2Number.of(1)
ZERO = Sqrt2Number.of(0)

D47_FACET_SETS = {
    frozenset(s)
    for s in [
        (1, 2, 3, 4), (1, 2, 3, 7), (1, 2, 4, 5), (1, 2, 5, 6), (1, 2, 6, 7),
        (1, 3, 4, 7), (1, 4, 5, 7), (1, 5, 6, 7), (2, 3, 4, 5), (2, 3, 5, 6),
        (2, 3, 6, 7), (3, 4, 5, 6), (3, 4, 6, 7), (4, 5, 6, 7),
    ]
}


def edge_vector_tuples(p):
    """Oracle: orientation tuples from the edge vectors of the polar.

    The edge leaving polar facet f at a vertex runs to the unique neighbor
    that shares every other facet; the sorted tuple is kept when the edge
    vectors in that order have positive determinant.
    """
    poly = p.polytope
    tuples = []
    for vi, vertex in enumerate(poly.vertices):
        base = sorted(vertex)
        edges = []
        for f in base:
            ridge = vertex - {f}
            (neighbor,) = [
                wi for wi, w in enumerate(poly.vertices) if wi != vi and ridge <= w
            ]
            edges.append(
                tuple(
                    a - b
                    for a, b in zip(p.vertex_coords[neighbor], p.vertex_coords[vi])
                )
            )
        det = det_field(edges)
        assert det != 0
        if sign(det) > 0:
            tuples.append(tuple(base))
        else:
            tuples.append((base[1], base[0]) + tuple(base[2:]))
    return OrientationData(tuple(tuples))


def lp_origin_interior(points):
    """Oracle: 0 is interior to the hull of spanning points iff it is a
    strictly positive combination of them (the LP over Q)."""
    rows = [[p[c] for p in points] for c in range(len(points[0]))]
    return strict_feasibility(rows) is not None


def random_point_sets(seed, count):
    """Seeded integer point sets in dimensions 2, 3 and 4."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.choice((2, 3, 4))
        n = rng.randint(d + 1, d + 4)
        yield [[rng.randint(-3, 3) for _ in range(d)] for _ in range(n)]


def assert_polar_certificate(polar):
    """<p_i, u> = 1 on the facet dual to u and < 1 off it."""
    for vertex, u in zip(polar.polytope.vertices, polar.vertex_coords):
        for i, p in enumerate(polar.facet_points, start=1):
            value = sum((a * b for a, b in zip(u, p)), 0)
            if i in vertex:
                assert value == 1
            else:
                assert sign(value - 1) < 0


class TestCurvePoints:
    def test_angle_zero(self):
        assert caratheodory_point(0) == (ONE, ZERO, ONE, ZERO)

    def test_angle_pi(self):
        assert caratheodory_point(4) == (-ONE, ZERO, ONE, ZERO)

    def test_angle_quarter(self):
        assert caratheodory_point(1) == (HALF_ROOT, HALF_ROOT, ZERO, ONE)

    @pytest.mark.parametrize("k", range(8))
    def test_trigonometric_identities(self, k):
        c, s, c2, s2 = caratheodory_point(k)
        assert c * c + s * s == 1
        assert c2 == c * c - s * s
        assert s2 == 2 * s * c
        # the signs of cos and sin at k*pi/4, quadrant by quadrant
        assert (c.sign(), s.sign()) == ((1, 0), (1, 1), (0, 1), (-1, 1),
                                        (-1, 0), (-1, -1), (0, -1), (1, -1))[k]
        # a quarter turn on: cos(u + pi/2) = -sin u, sin(u + pi/2) = cos u
        c_next, s_next = caratheodory_point((k + 2) % 8)[:2]
        assert (c_next, s_next) == (-s, c)

    def test_unsupported_angle(self):
        with pytest.raises(FieldCoverageError):
            caratheodory_point(9)

    def test_angles_must_increase(self):
        with pytest.raises(ValidationError):
            CaratheodoryRealization.of([0, 2, 1])

    @pytest.mark.parametrize("bad", [0.5, Fraction(3, 2), "1"], ids=repr)
    def test_non_integer_angle_rejected(self, bad):
        # int() read 0.5 as angle 0
        with pytest.raises(ValidationError, match="must be integers"):
            CaratheodoryRealization.of([bad, 2, 3, 4, 5])

    def test_int_and_bool_angles_accepted(self):
        r = CaratheodoryRealization.of([False, True, 2, 3, 4])
        assert r.angles.eighth_turns == (0, 1, 2, 3, 4)
        assert all(type(k) is int for k in r.angles.eighth_turns)


def gale_facets_pairwise(n, d):
    """Gale's evenness condition as stated: a d-subset Y of {1..n} is kept
    iff every pair i < j outside Y has an even number of elements of Y
    strictly between them.  The oracle for gale_facets' scan of runs."""
    out = []
    for cand in combinations(range(1, n + 1), d):
        outside = [i for i in range(1, n + 1) if i not in cand]
        if all(
            sum(1 for y in cand if a < y < b) % 2 == 0
            for a, b in combinations(outside, 2)
        ):
            out.append(cand)
    return out


class TestGale:
    def test_matches_pairwise_oracle(self):
        for n in range(2, 13):
            for d in range(1, n):
                assert gale_facets(n, d) == gale_facets_pairwise(n, d), (n, d)

    def test_simplex_case(self):
        assert set(map(frozenset, gale_facets(5, 4))) == set(
            map(frozenset, combinations(range(1, 6), 4))
        )

    def test_n7_exact_reference_list(self):
        assert set(map(frozenset, gale_facets(7, 4))) == D47_FACET_SETS

    def test_n6_count(self):
        assert len(gale_facets(6, 4)) == 9

    def test_count_formula(self):
        for n in range(5, 13):
            assert len(gale_facets(n, 4)) == n * (n - 3) // 2

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            gale_facets(4, 4)

    def test_dimension_below_one_rejected(self):
        for d in (0, -1):
            with pytest.raises(ValidationError):
                gale_facets(7, d)
        assert gale_facets(7, 1) == [(1,), (7,)]


def is_facet(n, candidate):
    """Whether the candidate spans a supporting hyperplane of the curve
    points at angles 0..n-1, by the field oracle's row reduction."""
    points = CaratheodoryRealization.of(range(n)).points
    return supporting_hyperplane(points, candidate) is not None


class TestGeometricFacets:
    def test_n7_true_and_false_cases(self):
        assert is_facet(7, (1, 2, 3, 4))
        assert not is_facet(7, (1, 3, 5, 7))

    def test_n5_every_subset_is_a_facet(self):
        for cand in combinations(range(1, 6), 4):
            assert is_facet(5, cand)

    def test_gale_equals_geometry(self):
        # exact combinatorial/geometric agreement for every realizable n
        for n in range(5, 9):
            gale = set(map(frozenset, gale_facets(n, 4)))
            geometric = {
                frozenset(cand)
                for cand in combinations(range(1, n + 1), 4)
                if is_facet(n, cand)
            }
            assert gale == geometric
            assert len(geometric) == {5: 5, 6: 9, 7: 14, 8: 20}[n]


class TestOriginInterior:
    def test_seven_angles(self):
        assert contains_origin_interior(CaratheodoryRealization.of(range(7)).points)

    def test_cross_polytope(self):
        points = []
        for i in range(4):
            for s in (1, -1):
                points.append([s if j == i else 0 for j in range(4)])
        assert contains_origin_interior(points)

    def test_separated_points(self):
        points = [[1, 0], [1, 1], [1, -1]]
        assert not contains_origin_interior(points)

    def test_rank_error(self):
        with pytest.raises(RankError):
            contains_origin_interior([[1, 0], [2, 0], [-1, 0]])

    @pytest.mark.parametrize("build", [contains_origin_interior, build_polar_from_points],
                             ids=["origin", "polar"])
    def test_empty_point_set_rejected(self, build):
        # _hull read lifted[0] and raised a bare IndexError
        with pytest.raises(ValidationError, match="^no points: a hull needs at least one point$"):
            build([])
        with pytest.raises(ValidationError, match="^no points"):
            build(iter([]))

    def test_points_from_an_iterator(self):
        # the denominators were cleared in two passes over the points, so an
        # iterator reached the second pass empty
        square = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        separated = [[1, 0], [1, 1], [1, -1]]
        assert contains_origin_interior(iter(square))
        assert contains_origin_interior(iter(p) for p in square)
        assert not contains_origin_interior(iter(separated))
        seven = CaratheodoryRealization.of(range(7)).points
        assert contains_origin_interior(iter(seven))
        assert build_polar_from_points(iter(square)) == build_polar_from_points(square)
        assert build_polar_from_points(iter(seven)) == build_polar_from_points(seven)

    def test_agrees_with_lp(self):
        decided = {True: 0, False: 0}
        for points in random_point_sets(7, 150):
            if matrix_rank(points) < len(points[0]):
                with pytest.raises(RankError):
                    contains_origin_interior(points)
                continue
            answer = contains_origin_interior(points)
            assert answer == lp_origin_interior(points)
            decided[answer] += 1
        assert min(decided.values()) >= 20


class TestBuildPolar:
    def test_square(self):
        polar = build_polar_from_points([(1, 0), (0, 1), (-1, 0), (0, -1)])
        assert polar.polytope.num_facets == 4
        assert len(polar.polytope.vertices) == 4
        assert set(polar.vertex_coords) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        assert all(type(x) is Fraction for c in polar.vertex_coords for x in c)

    def test_cross_polytope_gives_cube(self):
        points = []
        for i in range(4):
            for s in (1, -1):
                points.append([s if j == i else 0 for j in range(4)])
        polar = build_polar_from_points(points)
        assert polar.polytope.num_facets == 8
        assert len(polar.polytope.vertices) == 16
        assert all(len(v) == 4 for v in polar.polytope.vertices)

    def test_d47_counts(self):
        polar = d47_polar()
        assert polar.polytope.num_facets == 7
        assert len(polar.polytope.vertices) == 14

    def test_polar_of_angles_is_shared_and_equals_a_fresh_build(self):
        ks = (0, 2, 3, 5, 6, 7)
        polar = polar_of_angles(ks)
        assert polar_of_angles(tuple(list(ks))) is polar
        assert polar == build_polar(CaratheodoryRealization.of(ks))
        assert d47_polar() is polar_of_angles(D47_ANGLES)

    @pytest.mark.parametrize(
        "ks, error",
        [((0, 1, 2, 3, 4), PolarityError), ((0, 1, 8, 3, 4), FieldCoverageError)],
        ids=["origin-outside", "angle-out-of-range"],
    )
    def test_polar_of_angles_does_not_cache_failures(self, ks, error):
        size = polar_of_angles.cache_info().currsize
        for _ in range(3):
            with pytest.raises(error):
                polar_of_angles(ks)
        assert polar_of_angles.cache_info().currsize == size

    def test_origin_outside(self):
        with pytest.raises(PolarityError):
            build_polar_from_points([(1, 0), (2, 1), (2, -1)])

    def test_rank_deficient(self):
        with pytest.raises(RankError):
            build_polar_from_points([(1, 1), (-1, -1), (2, 2)])

    def test_square_pyramid_is_not_simplicial(self):
        pyramid = [(1, 1, -1), (1, -1, -1), (-1, 1, -1), (-1, -1, -1), (0, 0, 1)]
        with pytest.raises(DegeneracyError):
            build_polar_from_points(pyramid)

    def test_cube_is_not_simplicial(self):
        cube = [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
        with pytest.raises(DegeneracyError):
            build_polar_from_points(cube)

    def test_interior_point_is_named(self):
        with pytest.raises(NonVertexError, match="point 5 "):
            build_polar_from_points([(2, 0), (0, 2), (-2, 0), (0, -2), (0, 1)])

    def test_expected_facets_mismatch(self):
        square = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        build_polar_from_points(square, [(2, 1), (2, 3), (3, 4), (1, 4)])
        with pytest.raises(RealizationInconsistencyError):
            build_polar_from_points(square, [(1, 3), (2, 3), (3, 4), (1, 4)])

    def test_agrees_with_hyperplane_oracle(self):
        # every angle subset of size 5-8 and the seeded point sets above
        point_sets = [
            CaratheodoryRealization.of(ks).points
            for size in range(5, 9)
            for ks in combinations(range(8), size)
        ]
        point_sets += list(random_point_sets(7, 150)) + list(random_point_sets(13, 200))
        # affinely flat but spanning linearly: the origin is not interior
        point_sets += [[(1, 0), (0, 1), (2, -1)], [(1, 1, 1), (1, -1, 1), (-1, 0, 1), (0, 0, 1)]]
        outcomes = Counter()
        for points in point_sets:
            if matrix_rank(points) < len(points[0]):
                with pytest.raises(RankError):
                    build_polar_from_points(points)
                outcomes["rank"] += 1
                continue
            interior, facets, simplicial, vertices = hyperplane_polar(points)
            assert contains_origin_interior(points) == interior
            if not interior:
                expected = PolarityError
            elif not simplicial:
                expected = DegeneracyError
            elif set().union(*facets) != set(range(1, len(points) + 1)):
                expected = NonVertexError
            else:
                polar = build_polar_from_points(points)
                assert sorted(map(tuple, map(sorted, polar.polytope.vertices))) == facets
                assert dict(zip(polar.polytope.vertices, polar.vertex_coords)) == vertices
                field = Sqrt2Number if isinstance(points[0][0], Sqrt2Number) else Fraction
                assert {type(x) for c in polar.vertex_coords for x in c} == {field}
                outcomes["polar"] += 1
                continue
            with pytest.raises(expected):
                build_polar_from_points(points)
            outcomes[expected.__name__] += 1
        assert len(outcomes) == 5 and outcomes["polar"] >= 100

    def test_polar_inner_product_invariant(self):
        polar = d47_polar()
        for vi, vertex in enumerate(polar.polytope.vertices):
            u = polar.vertex_coords[vi]
            for i, p in enumerate(polar.facet_points, start=1):
                value = sum((a * b for a, b in zip(u, p)), SQRT2_ZERO)
                if i in vertex:
                    assert value == ONE
                else:
                    assert sign(value - ONE) < 0


class TestOrientationTuples:
    def test_square_counterclockwise(self):
        polar = build_polar_from_points([(1, 0), (0, 1), (-1, 0), (0, -1)])
        computed = set(polar.orientation.tuples)
        assert {frozenset(t) for t in computed} == {
            frozenset(s) for s in [(1, 2), (2, 3), (3, 4), (1, 4)]
        }
        # cyclic order: facets i and i+1 meet; (1,4) wraps, check orientation
        for t in computed:
            a, b = t
            assert (b - a) % 4 == 1 or (a - b) % 4 == 1

    def test_one_dimensional_polar_keeps_its_one_tuples(self):
        polar = build_polar_from_points([(1,), (-2,)])
        assert polar.vertex_coords == ((Fraction(1),), (Fraction(-1, 2),))
        assert polar.orientation.tuples == ((1,), (2,))

    def test_agrees_with_edge_vector_oracle(self):
        # also certifies every polar vertex it builds
        angle_sets = [tuple(range(n)) for n in range(5, 9)] + [
            (0, 1, 3, 4, 6), (0, 2, 3, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7),
        ]
        compared = 0
        for ks in angle_sets:
            r = CaratheodoryRealization.of(ks)
            try:
                polar = build_polar_from_points(r.points, gale_facets(r.n, 4))
            except PolarityError:
                assert not contains_origin_interior(r.points)
                continue
            assert_polar_certificate(polar)
            assert polar.orientation == edge_vector_tuples(polar)
            compared += 1
        for points in random_point_sets(13, 200):
            try:
                polar = build_polar_from_points(points)
            except (RankError, PolarityError, DegeneracyError, NonVertexError):
                continue
            assert all(type(x) is Fraction for c in polar.vertex_coords for x in c)
            assert_polar_certificate(polar)
            assert polar.orientation == edge_vector_tuples(polar)
            compared += 1
        assert compared >= 40

    def test_edge_determinants_positive(self):
        polar = d47_polar()
        orientation = d47_orientation()
        index_of = {v: i for i, v in enumerate(polar.polytope.vertices)}
        for tup in orientation.tuples:
            vertex = frozenset(tup)
            vi = index_of[vertex]
            edges = []
            for f in tup:
                ridge = vertex - {f}
                neighbor = next(
                    wi
                    for wi, w in enumerate(polar.polytope.vertices)
                    if wi != vi and ridge <= w
                )
                edges.append(
                    tuple(
                        a - b
                        for a, b in zip(
                            polar.vertex_coords[neighbor], polar.vertex_coords[vi]
                        )
                    )
                )
            det = det_field([[edges[j][i] for j in range(4)] for i in range(4)])
            assert det.sign() > 0

    def test_global_reversal_flips_parity(self):
        orientation = d47_orientation()
        for t, r in zip(orientation.tuples, orientation.reversed().tuples):
            assert permutation_parity(t, r) == -1

    def test_outward_normal_oracle(self):
        # independent oracle: for n = 4, sign(det of edge vectors) equals
        # sign(det of the facets' outward normals, i.e. the primal points)
        polar = d47_polar()
        orientation = d47_orientation()
        for tup in orientation.tuples:
            cols = [polar.facet_points[i - 1] for i in tup]
            det = det_field([[cols[j][i] for j in range(4)] for i in range(4)])
            assert det.sign() > 0

    def test_reference_comparison_is_mixed(self):
        # the published tuple list differs from the exact computation at two
        # vertices; three independent methods agree on the computed parities
        comparison = compare_orientation_tuples(
            d47_orientation(), D47_REFERENCE_TUPLES
        )
        assert comparison.case == "mixed"
        assert sorted(comparison.minority()) == ["1245", "1567"]


class TestDeterminantTraffic:
    """det_z2 expands over the sqrt 2 columns, and the curve has sqrt 2 only
    in its first two coordinates: no matrix the polar builds costs more than
    four integer determinants."""

    @pytest.fixture
    def traffic(self, monkeypatch):
        """Per det_z2 call from cyclic, the number of bareiss_det calls."""
        kernel, det_z2 = qtoric.exactnum.bareiss_det, qtoric.cyclic.det_z2
        per_call = []

        def counted_kernel(a):
            per_call[-1] += 1
            return kernel(a)

        def counted(m):
            per_call.append(0)
            return det_z2(m)

        monkeypatch.setattr(qtoric.exactnum, "bareiss_det", counted_kernel)
        monkeypatch.setattr(qtoric.cyclic, "det_z2", counted)
        return per_call

    def test_every_angle_subset_costs_at_most_four_kernel_calls(self, traffic):
        # a failed build makes det_z2 calls too, up to the check that fails
        tried = built = 0
        for ks in angle_subsets():
            tried += 1
            try:
                build_polar(CaratheodoryRealization.of(ks))
                built += 1
            except QtoricError:
                pass
        assert (tried, built) == (93, 33)
        assert traffic and max(traffic) <= 4

    def test_d47_totals(self, traffic):
        build_polar(CaratheodoryRealization.of(D47_ANGLES))
        assert (len(traffic), sum(traffic)) == (91, 308)
        assert max(traffic) <= 4
