"""Acceptance gate: one test per shipped criterion.

Each test prints a single pass/fail line (run with -s to see them on
success).  Everything is exact arithmetic, so every comparison below is
equality with zero tolerance.
"""

import itertools
import random
import time
from contextlib import contextmanager
from itertools import combinations, product

import pytest

from qtoric.charmap import (
    almost_complex_check,
    apply_flip,
    flip_system,
    sign_pattern,
    unimodularity_check,
)
from qtoric.charsearch import SearchConfig, search
from qtoric.complexes import (
    OrientationData,
    coherent_orientation,
    euler_characteristic,
    f_vector,
    h_vector,
    pseudomanifold_check,
)
from qtoric.cyclic import (
    CaratheodoryRealization,
    compare_orientation_tuples,
    contains_origin_interior,
    gale_facets,
    permutation_parity,
)
from qtoric.errors import IncoherentOrientationError
from qtoric.exactnum import Gf2System, gf2_solve
from qtoric.fanchk import (
    SimplicialCone,
    cone_membership,
    cones_from_charmap,
    fan_properness,
)
from qtoric.fixtures import (
    D47_REFERENCE_TUPLES,
    d47_orientation,
    d47_polar,
    get_fixture,
)

from field_oracle import supporting_hyperplane
from search_oracle import brute_force_search


@contextmanager
def criterion(num, title, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {num} ({title}): FAIL [{elapsed:.2f}s]")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= limit_seconds:
        print(f"criterion {num} ({title}): FAIL [{elapsed:.2f}s > {limit_seconds}s]")
        raise AssertionError(f"criterion {num} exceeded {limit_seconds}s")
    print(f"criterion {num} ({title}): PASS [{elapsed:.2f}s]")


def test_criterion_1_pentagon_signs():
    with criterion(1, "pentagon signs all +1", 1.0):
        fx = get_fixture("pentagon")
        signs = sign_pattern(fx.polytope, fx.charmap, fx.orientation)
        assert signs == (1, 1, 1, 1, 1)
        ok, offenders = almost_complex_check(fx.polytope, fx.charmap, fx.orientation)
        assert ok and not offenders


def test_criterion_2_gale_evenness():
    with criterion(2, "Gale facets of C4(7) match geometry", 5.0):
        expected = {
            frozenset(s)
            for s in [
                (1, 2, 3, 4), (1, 2, 3, 7), (1, 2, 4, 5), (1, 2, 5, 6),
                (1, 2, 6, 7), (1, 3, 4, 7), (1, 4, 5, 7), (1, 5, 6, 7),
                (2, 3, 4, 5), (2, 3, 5, 6), (2, 3, 6, 7), (3, 4, 5, 6),
                (3, 4, 6, 7), (4, 5, 6, 7),
            ]
        }
        gale = set(map(frozenset, gale_facets(7, 4)))
        assert gale == expected
        points = CaratheodoryRealization.of(range(7)).points
        for cand in combinations(range(1, 8), 4):
            assert (supporting_hyperplane(points, cand) is not None) == (
                frozenset(cand) in expected
            )


def test_criterion_3_origin_interior():
    with criterion(3, "origin interior to C4(7)", 1.0):
        assert contains_origin_interior(CaratheodoryRealization.of(range(7)).points)


def _label(tup):
    return "".join(str(i) for i in sorted(tup))


def ridge_conflicts(tuples):
    """Label pairs of tuples that induce the same orientation on their ridge.

    Dropping entry p of a tuple orients the shared ridge as the remaining
    entries times (-1)**p; a coherent orientation induces opposite
    orientations from the two sides of every ridge.
    """
    conflicts = set()
    for t, u in combinations(tuples, 2):
        ridge = set(t) & set(u)
        if len(ridge) != len(t) - 1:
            continue
        p = next(i for i, f in enumerate(t) if f not in ridge)
        q = next(i for i, f in enumerate(u) if f not in ridge)
        induced = (-1) ** (p + q) * permutation_parity(
            [f for f in t if f in ridge], [f for f in u if f in ridge]
        )
        if induced != -1:
            conflicts.add(tuple(sorted((_label(t), _label(u)))))
    return conflicts


# The 8 ridges on which the published list induces the same orientation
# from both sides, by the pair of tuples that meet there.
D47_PUBLISHED_CONFLICTS = {
    ("1234", "1245"), ("1245", "1256"), ("1245", "1457"),
    ("1245", "2345"), ("1256", "1567"), ("1267", "1567"),
    ("1457", "1567"), ("1567", "4567"),
}

# The published list with its two parity misprints corrected: 1245 and 1567
# are the only entries that change.
D47_CORRECTED_TUPLES = (
    (1, 2, 3, 4), (2, 1, 3, 7), (1, 2, 4, 5), (1, 2, 5, 6),
    (1, 2, 6, 7), (3, 1, 4, 7), (4, 1, 5, 7), (5, 1, 6, 7),
    (2, 3, 4, 5), (2, 3, 5, 6), (2, 3, 6, 7), (3, 4, 5, 6),
    (3, 4, 6, 7), (4, 5, 6, 7),
)


def test_criterion_4_orientation_tuples():
    # The published list D47_REFERENCE_TUPLES is not an orientation of D4(7):
    # on 8 of its 28 ridges the two sides induce the same orientation, and
    # every such ridge touches 1245 or 1567.  That conflict set is the
    # misprint certificate.  A connected orientable pseudomanifold has
    # exactly two orientations, so the published list with those two tuples
    # flipped is the only coherent list that agrees with it at the other 12
    # vertices; it also matches the Gale-evenness sign
    # (-1)**#{f in F : f > k}, k not in F.  The computed tuples are checked
    # against that corrected list over all 14 vertices, with zero tolerance.
    with criterion(4, "D4(7) tuples match reference up to even permutation", 5.0):
        published = compare_orientation_tuples(
            d47_orientation(), D47_REFERENCE_TUPLES
        )
        print(f"  published list: case {published.case}, "
              f"minority parity at {published.minority()}")
        assert ridge_conflicts(D47_REFERENCE_TUPLES) == D47_PUBLISHED_CONFLICTS
        assert ridge_conflicts(D47_CORRECTED_TUPLES) == set()
        changed = [
            _label(p)
            for p, c in zip(D47_REFERENCE_TUPLES, D47_CORRECTED_TUPLES)
            if p != c
        ]
        assert changed == ["1245", "1567"]
        comparison = compare_orientation_tuples(
            d47_orientation(), D47_CORRECTED_TUPLES
        )
        assert comparison.case in ("same", "reversed")


def test_published_d47_list_is_refused_as_an_orientation():
    # given as an orientation, the published list fails the coherence check
    # with one of its 8 conflicts as the certificate
    published = OrientationData(D47_REFERENCE_TUPLES)
    with pytest.raises(IncoherentOrientationError) as err:
        sign_pattern(d47_polar().polytope, get_fixture("d47").charmap, published)
    exc = err.value
    assert tuple(sorted((_label(exc.cell_a), _label(exc.cell_b)))) in D47_PUBLISHED_CONFLICTS
    assert exc.ridge == set(exc.cell_a) & set(exc.cell_b)


def brute_force_flips(structure, cm, orientation):
    m = structure.num_carriers
    good = []
    for flip in product((1, -1), repeat=m):
        signs = sign_pattern(structure, apply_flip(cm, flip), orientation)
        if all(s == 1 for s in signs):
            good.append(flip)
    return good


def test_criterion_5_d47_charmap():
    with criterion(5, "D4(7) map unimodular, not almost complex, unflippable", 1.0):
        polytope = d47_polar().polytope
        cm = get_fixture("d47").charmap
        orientation = d47_orientation()
        assert unimodularity_check(polytope, cm)[0]
        ok, _ = almost_complex_check(polytope, cm, orientation)
        assert not ok
        result = gf2_solve(flip_system(polytope, cm, orientation))
        assert not result.feasible
        assert brute_force_flips(polytope, cm, orientation) == []


def test_criterion_6_d47_search():
    with criterion(6, "bounded search on D4(7)", 600.0):
        polytope = d47_polar().polytope
        orientation = d47_orientation()
        base = (2, 1, 3, 7)

        start = time.perf_counter()
        r1 = search(polytope, orientation,
                    SearchConfig(bound=1, base_vertex=base, goal="all_positive"))
        assert r1.exhaustive and not r1.solutions
        assert time.perf_counter() - start < 10.0

        r2 = search(polytope, orientation,
                    SearchConfig(bound=2, base_vertex=base, goal="all_positive"))
        assert r2.exhaustive and not r2.solutions

        ru = search(polytope, orientation,
                    SearchConfig(bound=1, base_vertex=base, goal="unimodular"))
        assert ru.exhaustive
        reference = get_fixture("d47").charmap
        assert reference.vectors in {s.vectors for s in ru.solutions}
        print(f"  nodes: B=1 all-positive {r1.nodes}, "
              f"B=2 all-positive {r2.nodes}, B=1 unimodular {ru.nodes}; "
              f"unimodular solutions {len(ru.solutions)}")


def test_criterion_7_barnette_sphere():
    with criterion(7, "Barnette sphere invariants and unimodularity", 1.0):
        fx = get_fixture("barnette")
        fv = f_vector(fx.complex)
        assert fv == (8, 27, 38, 19)
        assert h_vector(fv, 4) == (1, 4, 9, 4, 1)
        assert euler_characteristic(fv) == 0
        assert pseudomanifold_check(fx.complex)[0]
        orientation = coherent_orientation(fx.complex)
        assert len(orientation.tuples) == 19
        ok, offenders = unimodularity_check(fx.complex, fx.charmap)
        assert ok and not offenders


def test_criterion_8_fan_properness():
    with criterion(8, "Barnette cones fail properness, plane fan passes", 30.0):
        fx = get_fixture("barnette")
        cones, adjacency = cones_from_charmap(fx.complex, fx.charmap)
        ok, offenders = fan_properness(cones, adjacency)
        assert not ok
        overlaps = [o for o in offenders if o["reason"] == "interior overlap"]
        assert overlaps
        first = overlaps[0]
        i, j = first["pair"]
        for c in (cones[i - 1], cones[j - 1]):
            assert cone_membership(c, first["witness_ray"])[1]

        plane_fan = [
            SimplicialCone.of([(1, 0), (0, 1)]),
            SimplicialCone.of([(0, 1), (-1, -1)]),
            SimplicialCone.of([(-1, -1), (1, 0)]),
        ]
        ok, offenders = fan_properness(plane_fan, [(1, 2), (2, 3), (1, 3)])
        assert ok and not offenders


def signed_cases():
    out = []
    for name in ("triangle", "square", "pentagon"):
        fx = get_fixture(name)
        out.append((fx.polytope, fx.charmap, fx.orientation))
    out.append((d47_polar().polytope, get_fixture("d47").charmap, d47_orientation()))
    barnette = get_fixture("barnette")
    out.append((barnette.complex, barnette.charmap,
                coherent_orientation(barnette.complex)))
    return out


def test_criterion_9_property_suites():
    with criterion(9, "property suites", 120.0):
        rng = random.Random(2026)

        # GF(2) solver vs exhaustive enumeration up to 16 variables
        for num_vars in (4, 9, 16):
            for _ in range(3):
                eqs = []
                for _ in range(rng.randint(1, num_vars + 2)):
                    support = {v for v in range(1, num_vars + 1)
                               if rng.random() < 0.4}
                    eqs.append((support, rng.randint(0, 1)))
                system = Gf2System.of(num_vars, eqs)
                result = gf2_solve(system)
                oracle = [
                    bits
                    for bits in itertools.product((0, 1), repeat=num_vars)
                    if all(
                        sum(bits[v - 1] for v in s) % 2 == r for s, r in eqs
                    )
                ]
                if result.feasible:
                    assert tuple(result.solution) in set(oracle)
                    assert len(oracle) == 2 ** result.dimension
                else:
                    assert oracle == []

        # flip-sign law, 100 random flips spread over the signed fixtures
        for structure, cm, orientation in signed_cases():
            before = sign_pattern(structure, cm, orientation)
            for _ in range(20):
                flip = tuple(rng.choice((-1, 1))
                             for _ in range(structure.num_carriers))
                after = sign_pattern(structure, apply_flip(cm, flip), orientation)
                for tup, s0, s1 in zip(orientation.tuples, before, after):
                    prod = 1
                    for i in tup:
                        prod *= flip[i - 1]
                    assert s1 == s0 * prod

        # det +1 change of basis preserves every sign pattern (50 transforms)
        for structure, cm, orientation in signed_cases():
            before = sign_pattern(structure, cm, orientation)
            n = cm.rank
            for _ in range(10):
                a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
                for _ in range(6):
                    i, j = rng.sample(range(n), 2)
                    c = rng.randint(-2, 2)
                    for k in range(n):
                        a[i][k] += c * a[j][k]
                new_vectors = [
                    tuple(sum(a[r][k] * v[k] for k in range(n)) for r in range(n))
                    for v in cm.vectors
                ]
                from qtoric.charmap import CharacteristicMap

                assert sign_pattern(
                    structure, CharacteristicMap.of(n, new_vectors), orientation
                ) == before

        # Dehn-Sommerville symmetry on all sphere fixtures
        from qtoric.complexes import SimplicialComplex

        spheres = [get_fixture(n).complex
                   for n in ("barnette", "cross4", "simplex4")]
        spheres.append(SimplicialComplex.of(7, gale_facets(7, 4)))
        for k in spheres:
            hv = h_vector(f_vector(k), k.dimension + 1)
            assert hv == hv[::-1]

        # search vs unpruned brute force at bound 1
        for name in ("triangle", "square"):
            fx = get_fixture(name)
            for goal in ("unimodular", "all_positive"):
                result = search(
                    fx.polytope, fx.orientation,
                    SearchConfig(bound=1, base_vertex=(1, 2), goal=goal),
                )
                found = sorted(s.vectors for s in result.solutions)
                assert found == sorted(
                    brute_force_search(fx.polytope, fx.orientation, (1, 2), 1, goal)
                )

