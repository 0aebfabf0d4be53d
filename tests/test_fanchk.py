"""Tests for cone membership, interior overlap, and fan properness."""

import random
from fractions import Fraction

import pytest

from qtoric.errors import ConeDegeneracyError, ValidationError
from qtoric.fanchk import (
    SimplicialCone,
    cone_membership,
    cones_from_charmap,
    cones_overlap_interior,
    fan_properness,
)
from qtoric.fixtures import get_fixture


def overlap_2d_oracle(a, b):
    """Interior overlap of two salient 2D cones by angular reasoning.

    The interior of cone(g1, g2) is the open sector between the generators;
    the intersection of two convex sectors has interior iff some generator
    of one lies inside (or on one wall but not a shared wall of) the other,
    or the cones coincide.  Checked against candidate interior directions
    drawn from pairwise generator sums, which suffices for convex sectors.
    """

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    def strictly_inside(p, cone):
        g1, g2 = cone.generators
        s = cross(g1, g2)
        return cross(g1, p) * s > 0 and cross(p, g2) * s > 0

    gens = list(a.generators) + list(b.generators)
    candidates = [
        (u[0] + v[0], u[1] + v[1]) for u in gens for v in gens
    ] + gens
    return any(
        strictly_inside(p, a) and strictly_inside(p, b) for p in candidates
    )


def random_salient_cone(rng):
    while True:
        g1 = (rng.randint(-3, 3), rng.randint(-3, 3))
        g2 = (rng.randint(-3, 3), rng.randint(-3, 3))
        d = g1[0] * g2[1] - g1[1] * g2[0]
        if d == 0:
            continue
        # salient: generators not opposite (always true when det != 0)
        return SimplicialCone.of([g1, g2])


class TestCone:
    def test_degenerate_rejected(self):
        with pytest.raises(ConeDegeneracyError):
            SimplicialCone.of([(1, 2), (2, 4)])

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            SimplicialCone.of([(1, 2, 3), (0, 1, 0)])

    def test_membership(self):
        c = SimplicialCone.of([(2, 1), (1, 2)])
        inside, interior, coeffs = cone_membership(c, (3, 3))
        assert inside and interior
        assert coeffs == (Fraction(1), Fraction(1))
        inside, interior, coeffs = cone_membership(c, (2, 1))
        assert inside and not interior
        inside, interior, _ = cone_membership(c, (1, -1))
        assert not inside


class TestOverlap:
    def test_disjoint_quadrants(self):
        a = SimplicialCone.of([(1, 0), (0, 1)])
        b = SimplicialCone.of([(-1, 0), (0, -1)])
        overlap, ray = cones_overlap_interior(a, b)
        assert not overlap and ray is None

    def test_shared_wall_only(self):
        a = SimplicialCone.of([(1, 0), (0, 1)])
        b = SimplicialCone.of([(0, 1), (-1, 0)])
        overlap, _ = cones_overlap_interior(a, b)
        assert not overlap

    def test_nested_cones_overlap(self):
        outer = SimplicialCone.of([(1, 0), (0, 1)])
        inner = SimplicialCone.of([(2, 1), (1, 2)])
        overlap, ray = cones_overlap_interior(outer, inner)
        assert overlap
        # witness ray is strictly interior to both
        for c in (outer, inner):
            _, interior, _ = cone_membership(c, ray)
            assert interior

    def test_symmetric(self):
        rng = random.Random(31)
        for _ in range(40):
            a = random_salient_cone(rng)
            b = random_salient_cone(rng)
            assert cones_overlap_interior(a, b)[0] == cones_overlap_interior(b, a)[0]

    def test_matches_2d_angular_oracle(self):
        rng = random.Random(37)
        for _ in range(120):
            a = random_salient_cone(rng)
            b = random_salient_cone(rng)
            overlap, ray = cones_overlap_interior(a, b)
            assert overlap == overlap_2d_oracle(a, b), (a, b)
            if overlap:
                for c in (a, b):
                    assert cone_membership(c, ray)[1]


class TestFanProperness:
    def test_pentagon_fan_proper(self):
        fx = get_fixture("pentagon")
        cones, adjacency = cones_from_charmap(fx.polytope, fx.charmap)
        ok, offenders = fan_properness(cones, adjacency)
        assert ok and not offenders

    def test_square_fan_proper(self):
        fx = get_fixture("square")
        cones, adjacency = cones_from_charmap(fx.polytope, fx.charmap)
        ok, offenders = fan_properness(cones, adjacency)
        assert ok and not offenders

    def test_barnette_fan_improper_83_pairs(self):
        fx = get_fixture("barnette")
        cones, adjacency = cones_from_charmap(fx.complex, fx.charmap)
        ok, offenders = fan_properness(cones, adjacency)
        assert not ok
        overlaps = [o for o in offenders if o["reason"] == "interior overlap"]
        assert len(overlaps) == 83
        # every reported witness is exact and interior to both cones
        for o in overlaps[:5]:
            i, j = o["pair"]
            for c in (cones[i - 1], cones[j - 1]):
                assert cone_membership(c, o["witness_ray"])[1]

    def test_bad_adjacency_reported(self):
        cones = [
            SimplicialCone.of([(1, 0), (0, 1)]),
            SimplicialCone.of([(-1, 0), (0, -1)]),
        ]
        ok, offenders = fan_properness(cones, adjacency=[(1, 2)])
        assert not ok
        assert offenders[0]["reason"] == "adjacent cones do not share a common ridge"

    def test_unimodular_change_of_coordinates_invariance(self):
        rng = random.Random(41)
        fx = get_fixture("pentagon")
        cones, adjacency = cones_from_charmap(fx.polytope, fx.charmap)
        bad = get_fixture("barnette")
        bad_cones, bad_adj = cones_from_charmap(bad.complex, bad.charmap)
        for _ in range(5):
            n = 2
            a = [[1, 0], [0, 1]]
            for _ in range(4):
                i, j = rng.sample(range(n), 2)
                c = rng.randint(-2, 2)
                for k in range(n):
                    a[i][k] += c * a[j][k]
            mapped = [
                SimplicialCone.of(
                    [
                        tuple(sum(a[r][k] * g[k] for k in range(n)) for r in range(n))
                        for g in cone.generators
                    ]
                )
                for cone in cones
            ]
            assert fan_properness(mapped, adjacency)[0]

        overlap_count = len(
            [o for o in fan_properness(bad_cones, bad_adj)[1] if "witness_ray" in o]
        )
        a = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]]
        mapped = [
            SimplicialCone.of(
                [
                    tuple(sum(a[r][k] * g[k] for k in range(4)) for r in range(4))
                    for g in cone.generators
                ]
            )
            for cone in bad_cones
        ]
        mapped_count = len(
            [o for o in fan_properness(mapped, bad_adj)[1] if "witness_ray" in o]
        )
        assert mapped_count == overlap_count == 83


class TestCoverage:
    def test_pentagon_sample_fully_covered(self):
        fx = get_fixture("pentagon")
        cones, _ = cones_from_charmap(fx.polytope, fx.charmap)
        directions = [
            (x, y)
            for x in range(-3, 4)
            for y in range(-3, 4)
            if (x, y) != (0, 0)
        ]
        assert len(directions) == 48
        for d in directions:
            assert any(cone_membership(c, d)[0] for c in cones), d
