"""Tests for characteristic maps, vertex signs, and the flip solver."""

import itertools
import random
from fractions import Fraction

import pytest

from qtoric.charmap import (
    CharacteristicMap,
    almost_complex_check,
    apply_flip,
    flip_from_bits,
    flip_system,
    sign_pattern,
    unimodularity_check,
)
from qtoric.complexes import OrientationData, SimplePolytope, coherent_orientation
from qtoric.errors import (
    CoverageError,
    UnimodularityError,
    ValidationError,
)
from qtoric.exactnum import gf2_solve
from qtoric.fixtures import d47_orientation, d47_polar, get_fixture

from ray_oracle import det


def oracle_det(cm, ordered):
    """det of the vectors at the labels, in order, by cofactor expansion."""
    return det([cm.vector(i) for i in ordered])


def cases_with_signs():
    """(structure, charmap, orientation) triples for every signed fixture."""
    out = []
    for name in ("triangle", "square", "pentagon"):
        fx = get_fixture(name)
        out.append((name, fx.polytope, fx.charmap, fx.orientation))
    out.append(
        ("d47", d47_polar().polytope, get_fixture("d47").charmap, d47_orientation())
    )
    barnette = get_fixture("barnette")
    out.append(
        ("barnette", barnette.complex, barnette.charmap,
         coherent_orientation(barnette.complex))
    )
    return out


class TestValidation:
    def test_non_primitive_vector_rejected(self):
        with pytest.raises(ValidationError):
            CharacteristicMap.of(2, [(2, 4), (0, 1)])

    @pytest.mark.parametrize("bad", [1.5, 1.9, Fraction(3, 2), "1"], ids=repr)
    def test_non_integer_entry_rejected(self, bad):
        # int() would truncate 1.9 to 1 and pass (1, 0) as primitive
        with pytest.raises(ValidationError, match="must be integers"):
            CharacteristicMap.of(2, [(bad, 0), (0, 1)])

    def test_int_and_bool_entries_accepted(self):
        cm = CharacteristicMap.of(2, [(True, False), (0, 1)])
        assert cm.vectors == ((1, 0), (0, 1))
        assert all(type(x) is int for v in cm.vectors for x in v)

    @pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), "1"], ids=repr)
    def test_direct_construction_rejects_non_integers(self, bad):
        # built without `of`, the map itself refuses to keep the entry
        with pytest.raises(ValidationError, match="must be integers"):
            CharacteristicMap(2, ((bad, 0), (0, 1)))

    def test_direct_construction_accepts_ints_and_bools(self):
        cm = CharacteristicMap(2, ((True, False), (0, 1)))
        assert cm.vectors == ((1, 0), (0, 1))
        assert all(type(x) is int for v in cm.vectors for x in v)

    def test_int_vectors_are_kept_not_copied(self):
        # the search builds each solution from shared candidate tuples
        v, w = (1, 0), (0, 1)
        cm = CharacteristicMap(2, (v, w))
        assert cm.vectors[0] is v and cm.vectors[1] is w

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            CharacteristicMap.of(3, [(1, 0), (0, 1), (1, 1)])

    def test_coverage_mismatch(self):
        square = get_fixture("square")
        short = CharacteristicMap.of(2, [(1, 0), (0, 1), (1, 1)])
        with pytest.raises(CoverageError):
            unimodularity_check(square.polytope, short)

    def test_rank_must_match_cell_size(self):
        square = get_fixture("square")
        rank3 = CharacteristicMap.of(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        with pytest.raises(CoverageError, match="rank 3 but cell 12 has 2 carriers"):
            unimodularity_check(square.polytope, rank3)


class TestUnimodularity:
    def test_fixtures_pass(self):
        for name, structure, cm, _ in cases_with_signs():
            ok, offenders = unimodularity_check(structure, cm)
            assert ok and not offenders, name

    def test_repeated_vector_fails_at_shared_vertex(self):
        square = get_fixture("square").polytope
        cm = CharacteristicMap.of(2, [(1, 0), (1, 0), (0, 1), (0, -1)])
        ok, offenders = unimodularity_check(square, cm)
        assert not ok
        assert ("12", 0) in offenders

    def test_matches_cofactor_oracle(self):
        for name, structure, cm, orientation in cases_with_signs():
            for tup in orientation.tuples:
                assert abs(oracle_det(cm, tup)) == 1, (name, tup)


class TestVertexSign:
    """sign_pattern against oracle_det, which shares no code with the
    Bareiss kernel."""

    def test_pentagon_all_positive(self):
        fx = get_fixture("pentagon")
        assert sign_pattern(fx.polytope, fx.charmap, fx.orientation) == (1,) * 5
        for tup in fx.orientation.tuples:
            assert oracle_det(fx.charmap, tup) == 1

    def test_d47_examples(self):
        cm = get_fixture("d47").charmap
        orientation = d47_orientation()
        signs = dict(zip(orientation.tuples, sign_pattern(d47_polar().polytope, cm, orientation)))
        assert signs[(2, 1, 3, 7)] == oracle_det(cm, (2, 1, 3, 7)) == 1
        assert signs[(4, 5, 6, 7)] == oracle_det(cm, (4, 5, 6, 7)) == -1

    def test_swap_negates(self):
        cm = get_fixture("d47").charmap
        polytope, orientation = d47_polar().polytope, d47_orientation()
        signs = sign_pattern(polytope, cm, orientation)
        flipped = sign_pattern(polytope, cm, orientation.reversed())
        assert flipped == tuple(-s for s in signs)
        assert oracle_det(cm, (1, 2, 3, 7)) == -oracle_det(cm, (2, 1, 3, 7))

    def test_non_unimodular_cell_raises(self):
        square = get_fixture("square")
        cm = CharacteristicMap.of(2, [(1, 0), (1, 0), (0, 1), (0, -1)])
        with pytest.raises(UnimodularityError, match="has det 0"):
            sign_pattern(square.polytope, cm, square.orientation)

    @pytest.mark.parametrize("ordered", [(0, 1), (1, 0), (-1, 2), (4, 1), (2, 5)])
    def test_label_outside_the_map_raises(self, ordered):
        # a det read straight off the labels would take label 0 as vector 3
        # of 3 and label 4 as an IndexError
        fx = get_fixture("triangle")
        orientation = OrientationData((ordered,) + fx.orientation.tuples[1:])
        with pytest.raises(ValidationError, match="is not a permutation of cell"):
            sign_pattern(fx.polytope, fx.charmap, orientation)

    def test_vector_takes_labels_one_to_m(self):
        cm = CharacteristicMap.of(2, [(1, 0), (0, 1), (-1, -1)])
        assert [cm.vector(i) for i in (1, 2, 3)] == list(cm.vectors)
        for label in (0, -1, -3, 4):
            with pytest.raises(ValidationError):
                cm.vector(label)

    @pytest.mark.parametrize(
        "name, structure, cm, orientation", cases_with_signs(),
        ids=[case[0] for case in cases_with_signs()],
    )
    def test_sign_pattern_matches_cofactor_oracle(self, name, structure, cm, orientation):
        expected = tuple(oracle_det(cm, t) for t in orientation.tuples)
        assert sign_pattern(structure, cm, orientation) == expected

    def test_rank_zero_map_has_one_cell_of_det_one(self):
        point = SimplePolytope(0, 0, (frozenset(),))
        cm = CharacteristicMap(0, ())
        assert unimodularity_check(point, cm) == (True, [])
        assert sign_pattern(point, cm, OrientationData(((),), False)) == (1,)

    def test_one_label_cells_carry_no_coherence_condition(self):
        # a 1-tuple has one order only, so the segment's two ends, which
        # share the empty ridge, need not induce opposite orientations on it
        segment = SimplePolytope(2, 1, ((1,), (2,)))
        cm = CharacteristicMap(1, ((1,), (-1,)))
        assert sign_pattern(segment, cm, OrientationData(((1,), (2,)))) == (1, -1)

    def test_sign_pattern_d47(self):
        signs = sign_pattern(
            d47_polar().polytope, get_fixture("d47").charmap, d47_orientation()
        )
        assert signs.count(-1) == 3
        ok, offenders = almost_complex_check(
            d47_polar().polytope, get_fixture("d47").charmap, d47_orientation()
        )
        assert not ok
        assert sorted(offenders) == ["1245", "1567", "4567"]

    def test_almost_complex_pentagon(self):
        fx = get_fixture("pentagon")
        ok, offenders = almost_complex_check(fx.polytope, fx.charmap, fx.orientation)
        assert ok and not offenders


class TestFlips:
    def test_apply_flip_negates_chosen_vectors(self):
        cm = get_fixture("square").charmap
        flipped = apply_flip(cm, (-1, 1, -1, 1))
        assert flipped.vectors == ((-1, 0), (0, 1), (1, 0), (0, -1))

    def test_flip_from_bits(self):
        assert flip_from_bits((1, 0, 0, 1)) == (-1, 1, 1, -1)

    def test_bad_flip_rejected(self):
        cm = get_fixture("square").charmap
        with pytest.raises(ValidationError):
            apply_flip(cm, (1, 1, 1))
        with pytest.raises(ValidationError):
            apply_flip(cm, (1, 0, 1, 1))

    def test_flip_sign_law(self):
        # sigma'(v) = sigma(v) * prod_{i in v} x_i, for random flips
        rng = random.Random(23)
        for name, structure, cm, orientation in cases_with_signs():
            before = sign_pattern(structure, cm, orientation)
            for _ in range(20):
                flip = tuple(
                    rng.choice((-1, 1)) for _ in range(structure.num_carriers)
                )
                after = sign_pattern(structure, apply_flip(cm, flip), orientation)
                for tup, s0, s1 in zip(orientation.tuples, before, after):
                    prod = 1
                    for i in tup:
                        prod *= flip[i - 1]
                    assert s1 == s0 * prod, (name, tup)

    def test_all_minus_one_flip_is_a_no_op_in_even_rank(self):
        for name, structure, cm, orientation in cases_with_signs():
            if cm.rank % 2:
                continue
            flip = (-1,) * structure.num_carriers
            assert sign_pattern(structure, apply_flip(cm, flip), orientation) == \
                sign_pattern(structure, cm, orientation), name

    def test_unimodular_change_of_basis_preserves_signs(self):
        rng = random.Random(29)
        for name, structure, cm, orientation in cases_with_signs():
            before = sign_pattern(structure, cm, orientation)
            n = cm.rank
            for _ in range(10):
                # random element of SL(n, Z) as a product of shear matrices
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
                transformed = CharacteristicMap.of(n, new_vectors)
                assert sign_pattern(structure, transformed, orientation) == before, name


def brute_force_flip(structure, cm, orientation):
    """All flip vectors that make every cell sign +1, by enumeration."""
    m = structure.num_carriers
    good = []
    for flip in itertools.product((1, -1), repeat=m):
        signs = sign_pattern(structure, apply_flip(cm, flip), orientation)
        if all(s == 1 for s in signs):
            good.append(flip)
    return good


class TestFlipSystem:
    def test_pentagon_feasible_matches_enumeration(self):
        fx = get_fixture("pentagon")
        system = flip_system(fx.polytope, fx.charmap, fx.orientation)
        result = gf2_solve(system)
        assert result.feasible
        oracle = brute_force_flip(fx.polytope, fx.charmap, fx.orientation)
        assert flip_from_bits(result.solution) in oracle
        assert len(oracle) == 2 ** result.dimension

    def test_square_matches_enumeration(self):
        fx = get_fixture("square")
        system = flip_system(fx.polytope, fx.charmap, fx.orientation)
        result = gf2_solve(system)
        oracle = brute_force_flip(fx.polytope, fx.charmap, fx.orientation)
        if result.feasible:
            assert flip_from_bits(result.solution) in oracle
            assert len(oracle) == 2 ** result.dimension
        else:
            assert oracle == []

    def test_d47_infeasible_matches_enumeration(self):
        structure = d47_polar().polytope
        cm = get_fixture("d47").charmap
        orientation = d47_orientation()
        result = gf2_solve(flip_system(structure, cm, orientation))
        assert not result.feasible
        assert brute_force_flip(structure, cm, orientation) == []

    def test_d47_certificate_cells(self):
        structure = d47_polar().polytope
        cm = get_fixture("d47").charmap
        orientation = d47_orientation()
        system = flip_system(structure, cm, orientation)
        result = gf2_solve(system)
        support = frozenset()
        rhs = 0
        labels = []
        for idx in result.certificate:
            eq_support, eq_rhs = system.equations[idx - 1]
            support ^= eq_support
            rhs ^= eq_rhs
            labels.append("".join(map(str, sorted(eq_support))))
        assert support == frozenset() and rhs == 1
        assert sorted(labels) == ["1234", "1245", "1347", "1457"]

    def test_barnette_infeasible_matches_enumeration(self):
        fx = get_fixture("barnette")
        orientation = coherent_orientation(fx.complex)
        result = gf2_solve(flip_system(fx.complex, fx.charmap, orientation))
        assert not result.feasible
        assert brute_force_flip(fx.complex, fx.charmap, orientation) == []

    def test_infeasibility_is_orientation_independent(self):
        fx = get_fixture("barnette")
        orientation = coherent_orientation(fx.complex).reversed()
        result = gf2_solve(flip_system(fx.complex, fx.charmap, orientation))
        assert not result.feasible


class TestCells:
    def test_cells_of_polytope_and_complex(self):
        square = get_fixture("square")
        barnette = get_fixture("barnette")
        assert square.polytope.cells == square.polytope.vertices
        assert barnette.complex.cells == barnette.complex.facets
        assert square.polytope.num_carriers == 4
        assert barnette.complex.num_carriers == 8
