"""Tests for the bounded characteristic-map search."""

from itertools import product

import pytest

from qtoric.charmap import (
    CharacteristicMap,
    almost_complex_check,
    sign_pattern,
    unimodularity_check,
)
from qtoric.charsearch import (
    SearchConfig,
    assignment_order,
    candidate_vectors,
    normalize_map,
    search,
)
from qtoric.errors import NormalizationError, ValidationError
from qtoric.exactnum import is_primitive
from qtoric.fixtures import d47_orientation, d47_polar, get_fixture


class TestNormalize:
    def test_pentagon_base_12(self):
        fx = get_fixture("pentagon")
        normalized = normalize_map(fx.charmap, (1, 2))
        assert normalized.vector(1) == (1, 0)
        assert normalized.vector(2) == (0, 1)
        # det +1 minor: all vertex signs are preserved
        assert sign_pattern(fx.polytope, normalized, fx.orientation) == \
            sign_pattern(fx.polytope, fx.charmap, fx.orientation)

    def test_d47_base_2137(self):
        cm = get_fixture("d47").charmap
        normalized = normalize_map(cm, (2, 1, 3, 7))
        for k, carrier in enumerate((2, 1, 3, 7)):
            assert normalized.vector(carrier) == tuple(
                1 if i == k else 0 for i in range(4)
            )

    def test_singular_minor_rejected(self):
        cm = CharacteristicMap.of(2, [(1, 0), (1, 0), (0, 1)])
        with pytest.raises(NormalizationError):
            normalize_map(cm, (1, 2))


class TestCandidates:
    def test_bound_one(self):
        vecs = candidate_vectors(2, 1)
        assert set(vecs) == {
            (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)
        }
        assert vecs == sorted(vecs)

    def test_primitive_only(self):
        vecs = candidate_vectors(2, 2)
        assert (2, 2) not in vecs and (0, 2) not in vecs
        assert all(is_primitive(v) for v in vecs)
        assert (2, 1) in vecs


class TestOrder:
    def test_covers_free_carriers(self):
        fx = get_fixture("pentagon")
        order = assignment_order(fx.polytope, (1, 2))
        assert sorted(order) == [3, 4, 5]
        # carrier 3 shares the vertex (2,3) with the assigned set, 5 shares
        # (5,1); the greedy rule breaks the tie toward the lower index
        assert order[0] == 3

    def test_barnette_order_is_a_permutation(self):
        fx = get_fixture("barnette")
        order = assignment_order(fx.complex, (1, 2, 3, 4))
        assert sorted(order) == [5, 6, 7, 8]


def brute_force_search(structure, orientation, base, bound, goal):
    """Unpruned enumeration over all candidate assignments (small cases)."""
    from qtoric.charmap import cells_of, num_carriers_of
    from qtoric.exactnum import det_int

    n = len(base)
    m = num_carriers_of(structure)
    free = [i for i in range(1, m + 1) if i not in base]
    cells = cells_of(structure)
    tuples = orientation.tuples
    base_pos = list(cells).index(frozenset(base))
    from qtoric.cyclic import permutation_parity

    if permutation_parity(base, tuples[base_pos]) < 0:
        tuples = orientation.reversed().tuples
    pinned = {c: tuple(1 if i == k else 0 for i in range(n))
              for k, c in enumerate(base)}
    solutions = []
    for combo in product(candidate_vectors(n, bound), repeat=len(free)):
        assignment = dict(pinned)
        assignment.update(zip(free, combo))
        ok = True
        for tup in tuples:
            cols = [assignment[i] for i in tup]
            d = det_int([[cols[j][i] for j in range(n)] for i in range(n)])
            if goal == "all_positive":
                ok = d == 1
            else:
                ok = abs(d) == 1
            if not ok:
                break
        if ok:
            solutions.append(tuple(assignment[i] for i in range(1, m + 1)))
    return solutions


class TestSearch:
    def test_triangle_unique_solution(self):
        fx = get_fixture("triangle")
        config = SearchConfig(bound=1, base_vertex=(1, 2), goal="all_positive")
        result = search(fx.polytope, fx.orientation, config)
        assert result.exhaustive
        assert result.nodes == 8
        assert len(result.solutions) == 1
        assert result.solutions[0].vectors == ((1, 0), (0, 1), (-1, -1))

    def test_triangle_matches_brute_force(self):
        fx = get_fixture("triangle")
        for goal in ("unimodular", "all_positive"):
            config = SearchConfig(bound=1, base_vertex=(1, 2), goal=goal)
            result = search(fx.polytope, fx.orientation, config)
            oracle = brute_force_search(fx.polytope, fx.orientation, (1, 2), 1, goal)
            assert sorted(s.vectors for s in result.solutions) == sorted(oracle)

    def test_square_matches_brute_force(self):
        fx = get_fixture("square")
        for goal in ("unimodular", "all_positive"):
            config = SearchConfig(bound=1, base_vertex=(1, 2), goal=goal)
            result = search(fx.polytope, fx.orientation, config)
            oracle = brute_force_search(fx.polytope, fx.orientation, (1, 2), 1, goal)
            assert sorted(s.vectors for s in result.solutions) == sorted(oracle)
            assert result.exhaustive

    def test_solutions_actually_satisfy_goal(self):
        fx = get_fixture("square")
        config = SearchConfig(bound=2, base_vertex=(1, 2), goal="all_positive")
        result = search(fx.polytope, fx.orientation, config)
        assert result.solutions
        for cm in result.solutions:
            assert unimodularity_check(fx.polytope, cm)[0]
            ok, _ = almost_complex_check(fx.polytope, cm, fx.orientation)
            # base tuple (1,2) matches the orientation's (1,2), no reversal
            assert ok

    def test_d47_unimodular_bound_one(self):
        polar = d47_polar()
        config = SearchConfig(bound=1, base_vertex=(2, 1, 3, 7), goal="unimodular")
        result = search(polar.polytope, d47_orientation(), config)
        assert result.exhaustive
        assert result.nodes == 47760
        assert len(result.solutions) == 640
        reference = get_fixture("d47").charmap
        assert reference.vectors in {s.vectors for s in result.solutions}

    def test_d47_all_positive_empty_at_bounds_one_and_two(self):
        polar = d47_polar()
        expected_nodes = {1: 3280, 2: 86496}
        for bound in (1, 2):
            config = SearchConfig(
                bound=bound, base_vertex=(2, 1, 3, 7), goal="all_positive"
            )
            result = search(polar.polytope, d47_orientation(), config)
            assert result.exhaustive
            assert result.solutions == []
            assert result.nodes == expected_nodes[bound]

    def test_order_override_changes_nodes_not_solutions(self):
        polar = d47_polar()
        base = (2, 1, 3, 7)
        default = search(
            polar.polytope, d47_orientation(),
            SearchConfig(bound=1, base_vertex=base),
        )
        overridden = search(
            polar.polytope, d47_orientation(),
            SearchConfig(bound=1, base_vertex=base, order=(6, 5, 4)),
        )
        assert {s.vectors for s in default.solutions} == \
            {s.vectors for s in overridden.solutions}

    def test_bad_order_rejected(self):
        fx = get_fixture("triangle")
        with pytest.raises(ValidationError):
            search(
                fx.polytope, fx.orientation,
                SearchConfig(bound=1, base_vertex=(1, 2), order=(2, 3)),
            )

    def test_base_vertex_must_be_a_cell(self):
        fx = get_fixture("square")
        with pytest.raises(ValidationError):
            search(
                fx.polytope, fx.orientation,
                SearchConfig(bound=1, base_vertex=(1, 3)),
            )

    def test_node_budget_clears_exhaustive_flag(self):
        polar = d47_polar()
        config = SearchConfig(
            bound=1, base_vertex=(2, 1, 3, 7), goal="unimodular", node_budget=100
        )
        result = search(polar.polytope, d47_orientation(), config)
        assert not result.exhaustive
        assert result.nodes == 101

    def test_solution_cap_stops_early(self):
        polar = d47_polar()
        config = SearchConfig(
            bound=1, base_vertex=(2, 1, 3, 7), goal="unimodular", solution_cap=3
        )
        result = search(polar.polytope, d47_orientation(), config)
        assert not result.exhaustive
        assert len(result.solutions) == 3

    @pytest.mark.parametrize(
        "limits", [{"solution_cap": 0}, {"solution_cap": -1}, {"node_budget": -5}]
    )
    def test_bad_limits_rejected(self, limits):
        with pytest.raises(ValidationError):
            SearchConfig(bound=1, base_vertex=(1, 2), **limits)

    def test_smallest_limits_accepted(self):
        fx = get_fixture("square")
        config = SearchConfig(bound=1, base_vertex=(1, 2), solution_cap=1, node_budget=0)
        result = search(fx.polytope, fx.orientation, config)
        assert len(result.solutions) <= 1 and not result.exhaustive

    def test_nodes_monotone_in_bound(self):
        fx = get_fixture("square")
        nodes = []
        for bound in (1, 2, 3):
            config = SearchConfig(bound=bound, base_vertex=(1, 2))
            nodes.append(search(fx.polytope, fx.orientation, config).nodes)
        assert nodes == sorted(nodes) and nodes[0] < nodes[-1]

    def test_reversed_base_tuple_gives_mirrored_solutions(self):
        # pinning the base in the opposite order searches the reflected
        # problem; solution counts agree
        fx = get_fixture("square")
        a = search(
            fx.polytope, fx.orientation,
            SearchConfig(bound=1, base_vertex=(1, 2), goal="all_positive"),
        )
        b = search(
            fx.polytope, fx.orientation,
            SearchConfig(bound=1, base_vertex=(2, 1), goal="all_positive"),
        )
        assert len(a.solutions) == len(b.solutions)
