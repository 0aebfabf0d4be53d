"""Tests for the bounded characteristic-map search."""

import hashlib
import random

import pytest

from qtoric import charsearch, exactnum
from qtoric.charmap import (
    CharacteristicMap,
    almost_complex_check,
    sign_pattern,
    unimodularity_check,
)
from qtoric.charsearch import (
    GOALS,
    SearchConfig,
    assignment_order,
    candidate_vectors,
    normalize_map,
    plan_search,
    search,
)
from qtoric.complexes import coherent_orientation, swapped
from qtoric.errors import NormalizationError, ValidationError
from qtoric.exactnum import bareiss_det, is_primitive
from qtoric.fixtures import d47_orientation, d47_polar, get_fixture

from ray_oracle import det
from search_oracle import brute_force_search, unshared_search
from test_oriented_cells import ORIENTED, fixture_case


@pytest.fixture
def det_calls(monkeypatch):
    """Counts the determinants a search evaluates, at charsearch.bareiss_det."""
    calls = [0]

    def counted(a):
        calls[0] += 1
        return exactnum.bareiss_det(a)

    monkeypatch.setattr(charsearch, "bareiss_det", counted)
    return calls


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

    @pytest.mark.parametrize("base", [(0, 1), (1, 0), (3, -1), (4, 1)])
    def test_base_label_outside_the_map_rejected(self, base):
        # label 0 used to read vector 3, normalizing the triangle at (3, 2)
        cm = CharacteristicMap.of(2, [(1, 0), (0, 1), (-1, -1)])
        with pytest.raises(ValidationError, match="outside 1..3"):
            normalize_map(cm, base)

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


class TestPlan:
    def test_square_plan_follows_the_base_parity(self):
        # the square's tuples are (1, 2), (2, 3), (3, 4) and (4, 1), so cell
        # 14 has parity -1 against its increasing carriers
        fx = get_fixture("square")
        plan = plan_search(
            fx.polytope, fx.orientation,
            SearchConfig(bound=1, base_vertex=(1, 2), goal="all_positive"),
        )
        assert plan.order == (3, 4)
        # each cell but the base is checked once, at the depth completing it,
        # over its increasing carriers; det -1 over (1, 4) is det +1 over (4, 1)
        assert plan.completed == ((((2, 3), (1,)),), (((3, 4), (1,)), ((1, 4), (-1,))))
        # (2, 1) has the opposite parity to the orientation's (1, 2), so
        # every cell accepts the negated signs
        odd = [
            plan_search(fx.polytope, fx.orientation,
                        SearchConfig(bound=1, base_vertex=(2, 1), goal=goal))
            for goal in ("all_positive", "unimodular")
        ]
        assert odd[0].completed == ((((2, 3), (-1,)),), (((3, 4), (-1,)), ((1, 4), (1,))))
        assert odd[1].completed == (
            (((2, 3), (-1, 1)),), (((3, 4), (-1, 1)), ((1, 4), (1, -1)))
        )
        assert {p.order for p in odd} == {(3, 4)}


def random_rows(rng, n):
    """n vectors: a signed permutation matrix (det +-1) or small entries."""
    if rng.random() < 0.5:
        columns = rng.sample(range(n), n)
        return [[rng.choice((-1, 1)) * (j == c) for j in range(n)] for c in columns]
    return [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]


class TestPlanAgainstTupleRule:
    """Each completed cell accepts, over its increasing carriers, exactly the
    vectors whose det over the cell's positive tuple lies in the goal's set:
    the orientation's tuple, or its reverse when the base is pinned in the
    opposite parity, as search_oracle decides.  Those dets are cofactor
    expansions (ray_oracle.det)."""

    @pytest.mark.parametrize("goal", sorted(GOALS))
    @pytest.mark.parametrize("name", ORIENTED)
    def test_completed_cells_admit_the_tuple_rule(self, name, goal):
        structure, orientation, _ = fixture_case(name)
        rng = random.Random(f"{name}:{goal}")
        tuples = orientation.tuples
        base = tuples[rng.randrange(len(tuples))]
        verdicts = set()
        for base_vertex, positive in ((base, tuples),
                                      (swapped(base), orientation.reversed().tuples)):
            plan = plan_search(structure, orientation, SearchConfig(base_vertex, goal=goal))
            completed = [cell for depth in plan.completed for cell in depth]
            assert sorted(t for t, _ in completed) == sorted(
                t for t in structure.ordered if set(t) != set(base))
            tuple_of = {frozenset(t): t for t in positive}
            for carriers, accepted in completed:
                for _ in range(8):
                    vector = dict(zip(carriers, random_rows(rng, len(carriers))))
                    # the kernel eliminates its rows in place
                    admitted = bareiss_det([list(vector[i]) for i in carriers]) in accepted
                    expected = det([vector[i] for i in tuple_of[frozenset(carriers)]])
                    assert admitted == (expected in GOALS[goal])
                    verdicts.add(admitted)
        assert verdicts == {True, False}


class TestCellOrder:
    """Each depth lists its cells fail first: fewest base-vertex carriers
    first, ties in cell order.  Acceptance is a conjunction over the cells,
    so any order gives the same nodes and solutions in the same order."""

    @pytest.mark.parametrize("name", ORIENTED)
    def test_cells_listed_by_base_carriers_then_cell_order(self, name):
        structure, orientation, _ = fixture_case(name)
        base = orientation.tuples[0]
        plan = plan_search(structure, orientation, SearchConfig(base))
        index = {t: k for k, t in enumerate(structure.ordered)}
        for depth in plan.completed:
            keys = [(len(set(base) & set(t)), index[t]) for t, _ in depth]
            assert keys == sorted(keys)

    # seeds whose shuffle moves a cell in every case; the triangle's two
    # cells stay in place for half of all seeds
    @pytest.mark.parametrize("seed", [9, 11])
    @pytest.mark.parametrize("name, base, bound, goal", [
        ("triangle", (1, 2), 2, "unimodular"),
        ("square", (1, 2), 2, "all_positive"),
        ("pentagon", (1, 2), 2, "unimodular"),
        ("barnette", (1, 2, 3, 4), 1, "all_positive"),
        ("d47", (2, 1, 3, 7), 1, "unimodular"),
    ])
    def test_shuffled_cells_give_the_same_result(self, monkeypatch, name, base,
                                                 bound, goal, seed):
        structure, orientation, _ = fixture_case(name)
        config = SearchConfig(base, bound=bound, goal=goal)
        shipped = search(structure, orientation, config)
        rng = random.Random(seed)
        plan = charsearch.plan_search
        moved = []

        def shuffled(*args):
            fixed = plan(*args)
            completed = tuple(tuple(rng.sample(depth, len(depth))) for depth in fixed.completed)
            moved.append(completed != fixed.completed)
            return charsearch.SearchPlan(fixed.order, completed)

        monkeypatch.setattr(charsearch, "plan_search", shuffled)
        assert search(structure, orientation, config) == shipped
        assert moved == [True]


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

    def test_d47_unimodular_bound_one(self, det_calls):
        polar = d47_polar()
        config = SearchConfig(bound=1, base_vertex=(2, 1, 3, 7), goal="unimodular")
        result = search(polar.polytope, d47_orientation(), config)
        assert result.exhaustive
        assert result.nodes == 47760
        assert det_calls[0] == 44595
        # a candidate and its negation share one verdict: exactly half the
        # determinants of the loop that eliminates both
        det_calls[0] = 0
        assert unshared_search(polar.polytope, d47_orientation(), config) == result
        assert det_calls[0] == 2 * 44595
        assert len(result.solutions) == 640
        # the report lists the solutions in search order, so pin that order
        ordered = repr(tuple(s.vectors for s in result.solutions)).encode()
        assert hashlib.sha256(ordered).hexdigest() == (
            "5b98c7348dff7872e49e4e542c70a86ecb058a0f8762f8503c3e095a4deb4884"
        )
        reference = get_fixture("d47").charmap
        assert reference.vectors in {s.vectors for s in result.solutions}

    def test_d47_unimodular_bound_two(self, det_calls):
        # the reference run the search's ROADMAP items measure against
        polar = d47_polar()
        config = SearchConfig(bound=2, base_vertex=(2, 1, 3, 7), goal="unimodular")
        result = search(polar.polytope, d47_orientation(), config)
        assert result.exhaustive
        assert result.nodes == 1560736
        assert det_calls[0] == 1121021
        assert len(result.solutions) == 2304
        ordered = repr(tuple(s.vectors for s in result.solutions)).encode()
        assert hashlib.sha256(ordered).hexdigest() == (
            "6be37428149c44e59bf56a06438d428ed98c69f176f4e1d55004e6756812af18"
        )

    def test_d47_all_positive_empty_at_bounds_one_and_two(self, det_calls):
        polar = d47_polar()
        expected_nodes = {1: 3280, 2: 86496}
        expected_dets = {1: 4346, 2: 102424}
        for bound in (1, 2):
            config = SearchConfig(
                bound=bound, base_vertex=(2, 1, 3, 7), goal="all_positive"
            )
            det_calls[0] = 0
            result = search(polar.polytope, d47_orientation(), config)
            assert result.exhaustive
            assert result.solutions == ()
            assert result.nodes == expected_nodes[bound]
            assert det_calls[0] == expected_dets[bound]

    def test_barnette_all_positive_empty_at_bound_one(self, det_calls):
        fx = get_fixture("barnette")
        config = SearchConfig(bound=1, base_vertex=(1, 2, 3, 4), goal="all_positive")
        result = search(fx.complex, coherent_orientation(fx.complex), config)
        assert result.exhaustive
        assert result.solutions == ()
        assert result.nodes == 43440
        assert det_calls[0] == 56134

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
        # a repeated label names no cell, though its set {1, 2} is one
        with pytest.raises(ValidationError, match="not a cell"):
            search(
                fx.polytope, fx.orientation,
                SearchConfig(bound=1, base_vertex=(1, 2, 2)),
            )

    def test_node_budget_clears_exhaustive_flag(self):
        polar = d47_polar()
        config = SearchConfig(
            bound=1, base_vertex=(2, 1, 3, 7), goal="unimodular", node_budget=100
        )
        result = search(polar.polytope, d47_orientation(), config)
        assert not result.exhaustive
        assert result.nodes == 100

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
        assert result.nodes == 0 and not result.solutions and not result.exhaustive

    def test_node_budget_bounds_the_candidates_built(self, monkeypatch):
        # all (2B+1)^n vectors of the box were built before the first node,
        # here 1201^2 of them for 10 nodes
        built = []
        enumerate_all = charsearch.candidate_vectors

        def counted(*args):
            out = enumerate_all(*args)
            built.append(len(out))
            return out

        checked = []

        def counted_primitive(v):
            checked.append(v)
            return is_primitive(v)

        monkeypatch.setattr(charsearch, "candidate_vectors", counted)
        monkeypatch.setattr(charsearch, "is_primitive", counted_primitive)
        fx = get_fixture("triangle")
        config = SearchConfig(bound=600, base_vertex=(1, 2), node_budget=10)
        result = search(fx.polytope, fx.orientation, config)
        assert result.nodes == 10 and not result.exhaustive
        assert built == [11]
        assert len(checked) < 50

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


# (fixture, base, bound): every benchmark base of D4(7)
SYMMETRY_CASES = [
    ("triangle", (1, 2), 1), ("triangle", (1, 2), 2),
    ("square", (1, 2), 1), ("square", (1, 2), 2),
    ("pentagon", (1, 2), 1), ("pentagon", (1, 2), 2),
    ("d47", (1, 2, 3, 4), 1), ("d47", (2, 1, 3, 7), 1), ("d47", (1, 2, 6, 7), 1),
    ("barnette", (1, 2, 3, 4), 1),
]


class TestSignSymmetry:
    """Under a goal whose signs are closed under negation, search gives a
    candidate's negation the verdict the candidate got.  The loop that
    eliminates both (search_oracle.unshared_search) must return the same
    whole SearchResult: solutions in order, nodes and exhaustive."""

    # Barnette B=1 unimodular runs 636,240 nodes whole, so it is compared
    # under caps and budgets only
    @pytest.mark.parametrize("name, base, bound, goal, limits", [
        (*case, goal, limits)
        for case in SYMMETRY_CASES for goal in sorted(GOALS)
        for limits in ({}, {"solution_cap": 1}, {"solution_cap": 5})
        if (case[0], goal, limits) != ("barnette", "unimodular", {})
    ])
    def test_matches_the_unshared_loop(self, name, base, bound, goal, limits):
        structure, orientation, _ = fixture_case(name)
        config = SearchConfig(base, bound=bound, goal=goal, **limits)
        assert search(structure, orientation, config) == \
            unshared_search(structure, orientation, config)

    @pytest.mark.parametrize("goal", sorted(GOALS))
    @pytest.mark.parametrize("name, base, bound", SYMMETRY_CASES)
    def test_node_budgets_match_the_unshared_loop(self, name, base, bound, goal):
        # budgets that cut the candidate list (count - 2; count - 1, where it
        # holds budget + 1 vectors), leave it whole (count, count + 1), and
        # stop at 16 points through the first 8,000 nodes
        structure, orientation, _ = fixture_case(name)
        count = len(candidate_vectors(len(base), bound))
        budgets = {count - 2, count - 1, count, count + 1}
        budgets.update(range(0, 8000, 500))
        for budget in sorted(budgets):
            config = SearchConfig(base, bound=bound, goal=goal, node_budget=budget)
            assert search(structure, orientation, config) == \
                unshared_search(structure, orientation, config), budget

    @pytest.mark.parametrize("goal", sorted(GOALS))
    @pytest.mark.parametrize("name", ["square", "pentagon"])
    def test_every_budget_matches_the_unshared_loop(self, name, goal):
        structure, orientation, _ = fixture_case(name)
        whole = search(structure, orientation, SearchConfig((1, 2), goal=goal))
        for budget in range(whole.nodes + 2):
            config = SearchConfig((1, 2), goal=goal, node_budget=budget)
            assert search(structure, orientation, config) == \
                unshared_search(structure, orientation, config), budget
