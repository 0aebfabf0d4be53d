"""Tests for cone membership, interior overlap, and fan properness."""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from qtoric import fanchk
from qtoric.charmap import CharacteristicMap
from qtoric.cli import main
from qtoric.complexes import SimplePolytope, SimplicialComplex
from qtoric.errors import ConeDegeneracyError, ValidationError
from qtoric.exactnum import strict_feasibility
from qtoric.fanchk import (
    SimplicialCone,
    cone_membership,
    cones_from_charmap,
    cones_overlap_interior,
    fan_properness,
)
from qtoric.fixtures import FIXTURE_NAMES, d47_polar, get_fixture

import cli_cases
from field_oracle import cones_overlap_interior as lp_overlap_oracle
from field_oracle import scan as scan_oracle
from ray_oracle import overlap_by_extreme_rays, strictly_inside
from test_golden_cyclic import FAN_SEEDS, gl4


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


def random_cone(rng, n, keep=()):
    """A cone in Z^n with entries in [-3, 3] whose generators include keep;
    a full-dimensional simplicial cone is salient."""
    while True:
        gens = list(keep) + [
            tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n - len(keep))
        ]
        rng.shuffle(gens)
        try:
            return SimplicialCone.of(gens)
        except ConeDegeneracyError:
            continue


def random_gl(rng, n):
    """A matrix in GL(n,Z): a signed permutation, then row additions."""
    perm = rng.sample(range(n), n)
    u = [[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        u[i] = [a + rng.choice((-1, 1)) * b for a, b in zip(u[i], u[j])]
    return u


def moved(u, cone):
    return SimplicialCone.of(
        [tuple(sum(a * x for a, x in zip(row, g)) for row in u) for g in cone.generators]
    )


def barycentre(cone):
    """The sum of the generators, as the Fractions a witness ray carries."""
    return tuple(Fraction(sum(coords)) for coords in zip(*cone.generators))


def seeded_cone_pairs(seed, per_dim=150):
    """(n, a, b, u) in dimensions 2..4; every other b shares 1..n generators
    with a, and u is a GL(n,Z) matrix to move the pair by."""
    rng = random.Random(seed)
    for n in (2, 3, 4):
        for k in range(per_dim):
            a = random_cone(rng, n)
            keep = rng.sample(a.generators, rng.randint(1, n)) if k % 2 else ()
            yield n, a, random_cone(rng, n, keep), random_gl(rng, n)


class TestCone:
    def test_degenerate_rejected(self):
        with pytest.raises(ConeDegeneracyError):
            SimplicialCone.of([(1, 2), (2, 4)])

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            SimplicialCone.of([(1, 2, 3), (0, 1, 0)])

    @pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), "1"], ids=repr)
    def test_non_integer_generator_rejected(self, bad):
        with pytest.raises(ValidationError, match="must be integers"):
            SimplicialCone.of([(bad, 0), (0, 1)])

    def test_int_and_bool_generators_accepted(self):
        c = SimplicialCone.of([(True, False), (0, 1)])
        assert c.generators == ((1, 0), (0, 1))
        assert all(type(x) is int for g in c.generators for x in g)

    def test_membership(self):
        c = SimplicialCone.of([(2, 1), (1, 2)])
        inside, interior, coeffs = cone_membership(c, (3, 3))
        assert inside and interior
        assert coeffs == (Fraction(1), Fraction(1))
        inside, interior, coeffs = cone_membership(c, (2, 1))
        assert inside and not interior
        inside, interior, _ = cone_membership(c, (1, -1))
        assert not inside
        assert cone_membership(c, (True, Fraction(1, 2)))[2] == (Fraction(1, 2), 0)

    @pytest.mark.parametrize("point", [[0.5, 0.25], ["1/2", "1/3"]], ids=repr)
    def test_membership_rejects_float_and_string(self, point):
        # Fraction(x) read both as exact rationals and returned a verdict
        c = SimplicialCone.of([(2, 1), (1, 2)])
        with pytest.raises(ValidationError, match="integers or Fractions"):
            cone_membership(c, point)


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
            a = random_cone(rng, 2)
            b = random_cone(rng, 2)
            assert cones_overlap_interior(a, b)[0] == cones_overlap_interior(b, a)[0]

    def test_matches_2d_angular_oracle(self):
        rng = random.Random(37)
        for _ in range(120):
            a = random_cone(rng, 2)
            b = random_cone(rng, 2)
            overlap, ray = cones_overlap_interior(a, b)
            assert overlap == overlap_2d_oracle(a, b), (a, b)
            if overlap:
                for c in (a, b):
                    assert cone_membership(c, ray)[1]


@pytest.fixture
def lp_counter(monkeypatch):
    """Counts the fan check's LP calls; the oracles' LP is not counted."""
    calls = Counter()
    lp = fanchk.strict_feasibility

    def counted(rows):
        calls["lp"] += 1
        return lp(rows)

    monkeypatch.setattr(fanchk, "strict_feasibility", counted)
    return calls


def decided_by(lp_counter, a, b):
    """cones_overlap_interior(a, b) and the step that decided it: the scan
    separates ("sign") or finds A 1 or B 1 ("probe"), or the LP runs and
    finds an overlap ("overlap") or none ("lp")."""
    before = lp_counter["lp"]
    result = cones_overlap_interior(a, b)
    if lp_counter["lp"] == before:
        return result, "probe" if result[0] else "sign"
    return result, "overlap" if result[0] else "lp"


class TestSignTestAgainstLpOracle:
    """The facet scan in front of the LP changes no verdict: the LP-only
    overlap test is the oracle.  A pair the scan decides as overlapping
    carries A 1 or B 1 as its witness, strictly inside both cones; a pair
    the LP decides carries the oracle's witness."""

    def test_verdicts_and_witness_rays_match(self, lp_counter):
        # how each pair was decided, per dimension
        decided = {n: Counter() for n in (2, 3, 4)}
        for n, a, b, u in seeded_cone_pairs(2003):
            steps, rays = set(), []
            for x, y in ((a, b), (moved(u, a), moved(u, b))):
                result, step = decided_by(lp_counter, x, y)
                oracle = lp_overlap_oracle(x, y)
                assert result[0] == oracle[0], (x, y)
                if step in ("lp", "overlap"):
                    assert result == oracle, (x, y)
                elif step == "probe":
                    assert result[1] in (barycentre(x), barycentre(y)), (x, y)
                    assert all(cone_membership(c, result[1])[1] for c in (x, y))
                steps.add(step)
                rays.append(result[1])
            # the scan reads G^-1 A only, which GL(n,Z) leaves alone: the same
            # step decides the moved pair, and a probed ray moves with it
            assert len(steps) == 1, (a, b)
            if step == "probe":
                assert rays[1] == tuple(
                    sum(c * r for c, r in zip(row, rays[0])) for row in u
                )
            decided[n][step] += 1
        for n in (3, 4):
            assert min(decided[n][k] for k in ("sign", "probe", "lp", "overlap")) > 0, decided
        # in the plane a separating line turns onto a generator: never undecided
        assert decided[2]["lp"] == 0 and decided[2]["sign"] > 0

    def test_separated_means_lp_infeasible(self, lp_counter):
        separated = 0
        for _, a, b, _ in seeded_cone_pairs(77, per_dim=100):
            for x, y in ((a, b), (b, a)):
                if decided_by(lp_counter, x, y)[1] == "sign":
                    separated += 1
                    rows = [
                        rx + [-v for v in ry]
                        for rx, ry in zip(x.matrix_rows(), y.matrix_rows())
                    ]
                    assert strict_feasibility(rows) is None
        assert separated > 100


class TestFanCheckLpTraffic:
    """Only the pairs the facet scan leaves open reach the LP."""

    @pytest.mark.parametrize(
        "case, pairs, probed, lp_calls",
        [("barnette", 171, 25, 58), ("d47", 91, 7, 18), ("cross4", 120, 0, 0)],
    )
    def test_lp_calls(self, lp_counter, monkeypatch, tmp_path, capsys, case, pairs,
                      probed, lp_calls):
        steps = Counter()

        def counted(a, b):
            result, step = decided_by(lp_counter, a, b)
            steps[step] += 1
            if step == "probe":
                assert result[1] in (barycentre(a), barycentre(b))
            return result

        monkeypatch.setattr(fanchk, "cones_overlap_interior", counted)
        argv = ["fan-check", f"fixtures:{case}"]
        if case == "cross4":
            path = tmp_path / "cross4.json"
            path.write_text(json.dumps(cli_cases.DOCUMENTS["cross4"]))
            argv.append(str(path))
        main(argv)
        capsys.readouterr()
        assert sum(steps.values()) == pairs
        assert steps["probe"] == probed
        assert lp_counter["lp"] == lp_calls
        # every pair that reaches the LP on these fixtures overlaps
        assert steps["overlap"] == lp_calls and steps["lp"] == 0


def fixture_cones(case):
    """The cones of the Barnette, D4(7), cross4 (+-e_i) or pentagon fan."""
    if case == "pentagon":
        fx = get_fixture(case)
        return cones_from_charmap(fx.polytope, fx.charmap)[0]
    if case == "cross4":
        cm = CharacteristicMap.of(4, cli_cases.DOCUMENTS["cross4"]["vectors"])
        return cones_from_charmap(get_fixture("cross4").complex, cm)[0]
    if case == "d47":
        return cones_from_charmap(d47_polar().polytope, get_fixture("d47").charmap)[0]
    fx = get_fixture(case)
    return cones_from_charmap(fx.complex, fx.charmap)[0]


class TestExtremeRayOracle:
    """Verdicts match the integer extreme-ray oracle, which shares no code
    with the scan or the LP, and every witness is strictly inside both
    cones by the oracle's own facet normals."""

    @staticmethod
    def check(pairs):
        verdicts = Counter()
        for a, b in pairs:
            overlap, ray = cones_overlap_interior(a, b)
            assert overlap == overlap_by_extreme_rays(a.generators, b.generators)[0], (a, b)
            if overlap:
                assert strictly_inside(a.generators, ray)
                assert strictly_inside(b.generators, ray)
            verdicts[overlap] += 1
        return verdicts

    def test_seeded_pairs(self):
        verdicts = self.check(
            pair
            for _, a, b, u in seeded_cone_pairs(2003)
            for pair in ((a, b), (moved(u, a), moved(u, b)))
        )
        assert verdicts[True] > 100 and verdicts[False] > 100

    @pytest.mark.parametrize("case, overlapping", [("barnette", 83), ("d47", 25), ("cross4", 0)])
    def test_fixture_pairs_under_gl4(self, case, overlapping):
        cones = fixture_cones(case)
        for u in [None] + [gl4(seed) for seed in FAN_SEEDS]:
            mapped = cones if u is None else [moved(u, c) for c in cones]
            verdicts = self.check(combinations(mapped, 2))
            assert verdicts[True] == overlapping


class TestMemoizedScan:
    """The facet scan reads S_y g from y's memo; the scan that recomputes
    every product on every call is the oracle for its None/True/False."""

    @staticmethod
    def check(pairs):
        results = Counter()
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                expected = scan_oracle(x, y)
                # the first call may fill y's memo, the second reads it
                assert fanchk._scan(x, y) == expected == fanchk._scan(x, y), (x, y)
                results[expected] += 1
        return results

    @pytest.mark.parametrize("case, dim, expected", [
        ("barnette", 4, {None, True, False}), ("d47", 4, {None, True, False}),
        ("cross4", 4, {None}), ("pentagon", 2, {None, False}),
    ])
    def test_fixture_pairs_under_gl4(self, case, dim, expected):
        cones = fixture_cones(case)
        assert cones[0].dim == dim
        moves = [gl4(seed) for seed in FAN_SEEDS] if dim == 4 else []
        outcomes = set()
        for u in [None] + moves:
            mapped = cones if u is None else [moved(u, c) for c in cones]
            outcomes |= set(self.check(combinations(mapped, 2)))
        assert outcomes == expected

    def test_seeded_pairs_with_shared_generators(self):
        results = self.check(
            pair
            for _, a, b, u in seeded_cone_pairs(2003)
            for pair in ((a, b), (moved(u, a), moved(u, b)))
        )
        assert min(results.values()) > 50, results


class TestScanTraffic:
    """On Barnette the fan check asks about each pair once, and each cone
    computes its products with each distinct generator once."""

    def test_barnette(self, monkeypatch):
        fx = get_fixture("barnette")
        cones, adjacency = cones_from_charmap(fx.complex, fx.charmap)
        generators = {g for c in cones for g in c.generators}
        assert (len(cones), len(generators)) == (19, 8)
        pairs, columns = Counter(), Counter()
        overlap, products = fanchk.cones_overlap_interior, fanchk._facet_products

        def counted_overlap(a, b):
            pairs[cones.index(a), cones.index(b)] += 1
            return overlap(a, b)

        def counted_products(c, g):
            columns[id(c), g] += 1
            return products(c, g)

        monkeypatch.setattr(fanchk, "cones_overlap_interior", counted_overlap)
        monkeypatch.setattr(fanchk, "_facet_products", counted_products)
        ok, offenders = fan_properness(cones, adjacency)
        assert not ok and len(offenders) == 83
        assert pairs == Counter(combinations(range(19), 2))
        assert len(pairs) == 171
        assert set(columns.values()) == {1}
        assert len(columns) <= 19 * 8
        assert {c for c, _ in columns} <= {id(c) for c in cones}

    def test_filled_memo_leaves_equality_hash_and_repr(self):
        fx = get_fixture("barnette")
        cones, adjacency = cones_from_charmap(fx.complex, fx.charmap)
        fan_properness(cones, adjacency)
        assert all(c._products for c in cones)
        for c in cones:
            fresh = SimplicialCone(c.generators)
            assert not fresh._products
            assert c == fresh and hash(c) == hash(fresh) and repr(c) == repr(fresh)
        assert repr(cones[0]) == f"SimplicialCone(generators={cones[0].generators!r})"
        # the memo lives on the cones of one call: the next call starts empty
        again, _ = cones_from_charmap(fx.complex, fx.charmap)
        assert again == cones and not any(c._products for c in again)


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


def adjacency_by_pairs(cells):
    """The all-pairs scan cones_from_charmap made before it read the ridge
    map: the 1-based pairs of cells that share all but one carrier."""
    n = len(cells[0])
    return [
        (i, j)
        for i, j in combinations(range(1, len(cells) + 1), 2)
        if len(cells[i - 1] & cells[j - 1]) == n - 1
    ]


def fixture_structure(name):
    fx = get_fixture(name)
    return d47_polar().polytope if name == "d47" else fx.polytope or fx.complex


def moment_charmap(structure):
    """Carrier t gets (1, t, ..., t^(n-1)): any n of these vectors are
    independent (a Vandermonde minor), so every cell spans a cone."""
    n = len(structure.cells[0])
    return CharacteristicMap.of(
        n, [[t ** k for k in range(n)] for t in range(1, structure.num_carriers + 1)]
    )


def relabeled(structure, rng):
    """The same structure with its carriers permuted and its cells shuffled."""
    perm = list(range(1, structure.num_carriers + 1))
    rng.shuffle(perm)
    cells = [[perm[v - 1] for v in cell] for cell in structure.cells]
    rng.shuffle(cells)
    if isinstance(structure, SimplePolytope):
        return SimplePolytope.of(structure.num_facets, structure.dimension, cells)
    return SimplicialComplex.of(structure.num_vertices, cells)


class TestRidgeAdjacency:
    """cones_from_charmap reads its adjacency off the ridge map; the old
    all-pairs scan is the oracle."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_matches_the_all_pairs_scan(self, name):
        rng = random.Random(FIXTURE_NAMES.index(name))
        structure = fixture_structure(name)
        for k in range(8):
            s = structure if k == 0 else relabeled(structure, rng)
            cones, adjacency = cones_from_charmap(s, moment_charmap(s))
            assert len(cones) == len(s.cells)
            assert adjacency == adjacency_by_pairs(s.cells)

    def test_a_ridge_in_three_cells_gives_three_pairs(self):
        book = SimplicialComplex.of(5, [(1, 2, 3), (1, 2, 4), (1, 2, 5)])
        _, adjacency = cones_from_charmap(book, moment_charmap(book))
        assert adjacency == adjacency_by_pairs(book.cells) == [(1, 2), (1, 3), (2, 3)]

    def test_d47_has_28_adjacent_pairs(self):
        polytope = d47_polar().polytope
        _, adjacency = cones_from_charmap(polytope, get_fixture("d47").charmap)
        assert len(adjacency) == len(polytope.ridges) == 28
