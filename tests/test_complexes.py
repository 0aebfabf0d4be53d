"""Tests for simplicial complexes, f/h-vectors, and orientations."""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from qtoric.complexes import (
    OrientationData,
    SimplicialComplex,
    SimplePolytope,
    coherent_orientation,
    dualize,
    euler_characteristic,
    f_vector,
    h_vector,
    pseudomanifold_check,
)
from qtoric.cyclic import gale_facets, permutation_parity
from qtoric.errors import NonOrientableError, ValidationError
from qtoric.fixtures import BARNETTE_FACETS, get_fixture


def simplex_boundary(n_vertices):
    return SimplicialComplex.of(
        n_vertices, combinations(range(1, n_vertices + 1), n_vertices - 1)
    )


def h_vector_oracle(f, d):
    """Independent oracle: expand h(t) = sum_i f_{i-1} (t-1)^{d-i}."""
    # polynomial coefficients indexed by power of t, ascending
    poly = [0] * (d + 1)
    full = [1] + list(f)
    for i, fi in enumerate(full):
        # (t-1)^(d-i)
        e = d - i
        for k in range(e + 1):
            poly[k] += fi * comb(e, k) * (-1) ** (e - k)
    # h_k is the coefficient of t^{d-k}
    return tuple(poly[d - k] for k in range(d + 1))


class TestFVector:
    def test_simplex_boundary(self):
        assert f_vector(simplex_boundary(5)) == (5, 10, 10, 5)

    def test_barnette(self):
        assert f_vector(get_fixture("barnette").complex) == (8, 27, 38, 19)

    def test_cross_polytope(self):
        fv = f_vector(get_fixture("cross4").complex)
        assert fv == (8, 24, 32, 16)
        # binomial oracle: f_k = C(4, k+1) * 2^(k+1)
        assert fv == tuple(comb(4, k + 1) * 2 ** (k + 1) for k in range(4))

    def test_non_pure_rejected(self):
        with pytest.raises(ValidationError):
            SimplicialComplex.of(4, [(1, 2, 3), (1, 4)])


class TestHVector:
    def test_simplex_boundary(self):
        assert h_vector((5, 10, 10, 5), 4) == (1, 1, 1, 1, 1)

    def test_barnette(self):
        assert h_vector((8, 27, 38, 19), 4) == (1, 4, 9, 4, 1)

    def test_cross_polytope(self):
        assert h_vector((8, 24, 32, 16), 4) == (1, 4, 6, 4, 1)
        assert h_vector_oracle((8, 24, 32, 16), 4) == (1, 4, 6, 4, 1)

    def test_matches_polynomial_oracle(self):
        for name in ("barnette", "cross4", "simplex4"):
            fv = f_vector(get_fixture(name).complex)
            assert h_vector(fv, 4) == h_vector_oracle(fv, 4)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            h_vector((1, 2, 3), 4)

    def test_sum_is_facet_count_and_dehn_sommerville(self):
        fixtures = [get_fixture(n).complex for n in ("barnette", "cross4", "simplex4")]
        fixtures.append(SimplicialComplex.of(7, gale_facets(7, 4)))
        for k in fixtures:
            fv = f_vector(k)
            hv = h_vector(fv, k.dimension + 1)
            assert sum(hv) == fv[-1]
            assert hv == hv[::-1]  # Dehn-Sommerville symmetry

    def test_euler_characteristic_odd_spheres(self):
        for name in ("barnette", "cross4", "simplex4"):
            assert euler_characteristic(f_vector(get_fixture(name).complex)) == 0


class TestPseudomanifold:
    def test_simplex_boundary_passes(self):
        ok, offending = pseudomanifold_check(simplex_boundary(4))
        assert ok and not offending

    def test_barnette_passes_with_ridge_oracle(self):
        k = get_fixture("barnette").complex
        ok, offending = pseudomanifold_check(k)
        assert ok
        # independent ridge-count oracle over the 38 triangles
        counts = {}
        for f in k.facets:
            for t in combinations(sorted(f), 3):
                counts[t] = counts.get(t, 0) + 1
        assert len(counts) == 38
        assert all(c == 2 for c in counts.values())

    def test_single_simplex_fails(self):
        ok, offending = pseudomanifold_check(SimplicialComplex.of(4, [(1, 2, 3, 4)]))
        assert not ok
        assert len(offending) == 4


def check_coherence(k: SimplicialComplex, orientation):
    """Independent check: induced ridge orientations must be opposite."""
    by_ridge = {}
    for tup in orientation.tuples:
        for pos in range(len(tup)):
            ridge = tuple(x for i, x in enumerate(tup) if i != pos)
            key = frozenset(ridge)
            # parity of the induced ridge tuple relative to sorted order
            parity = (-1) ** pos * permutation_parity(ridge, tuple(sorted(ridge)))
            by_ridge.setdefault(key, []).append(parity)
    for key, parities in by_ridge.items():
        assert len(parities) == 2, f"ridge {sorted(key)} not in two facets"
        assert parities[0] == -parities[1], f"ridge {sorted(key)} incoherent"


class TestOrientation:
    def test_simplex_boundary_orientable(self):
        k = simplex_boundary(4)
        orientation = coherent_orientation(k)
        check_coherence(k, orientation)

    def test_barnette_orientable_19_tuples(self):
        k = get_fixture("barnette").complex
        orientation = coherent_orientation(k)
        assert len(orientation.tuples) == 19
        check_coherence(k, orientation)

    def test_unique_up_to_global_reversal(self):
        k = get_fixture("barnette").complex
        orientation = coherent_orientation(k)
        reversed_ = orientation.reversed()
        check_coherence(k, reversed_)
        for t, r in zip(orientation.tuples, reversed_.tuples):
            assert permutation_parity(t, r) == -1

    def test_cached_orientation_matches_an_equal_fresh_complex(self):
        k = get_fixture("barnette").complex
        cached = coherent_orientation(k)
        fresh = SimplicialComplex.of(8, BARNETTE_FACETS)
        assert fresh == k and fresh is not k
        # nothing is computed until it is asked for
        assert not {"ridges", "offending_ridges", "coherent_orientation",
                    "f_vector"} & set(vars(fresh))
        assert coherent_orientation(k) is cached
        assert coherent_orientation(fresh) == cached
        assert coherent_orientation(fresh) is coherent_orientation(fresh)

    def test_cached_invariants_are_immutable(self):
        k = SimplicialComplex.of(8, BARNETTE_FACETS)
        assert f_vector(k) is f_vector(k) == (8, 27, 38, 19)
        assert isinstance(k.coherent_orientation.tuples, tuple)
        assert all(isinstance(owners, tuple) for owners in k.ridges.values())
        with pytest.raises(TypeError):
            k.ridges[frozenset()] = ()
        single = SimplicialComplex.of(4, [(1, 2, 3, 4)])
        pseudomanifold_check(single)[1].clear()
        assert len(pseudomanifold_check(single)[1]) == 4

    def test_zero_sphere_keeps_its_one_label_tuples(self):
        k = SimplicialComplex.of(2, [(1,), (2,)])
        assert coherent_orientation(k).tuples == ((1,), (2,))

    def test_zero_sphere_reverses_to_its_own_tuples(self):
        # a one-label tuple has one order, which reversal keeps
        reversed_ = coherent_orientation(SimplicialComplex.of(2, [(1,), (2,)])).reversed()
        assert reversed_ == OrientationData(((1,), (2,)), reversed_seed=True)
        assert reversed_.reversed() == OrientationData(((1,), (2,)))

    def test_rp2_non_orientable(self):
        with pytest.raises(NonOrientableError) as err:
            coherent_orientation(get_fixture("rp2_6").complex)
        assert err.value.facet_a != err.value.facet_b
        assert len(err.value.ridge) == 2

    def test_rp2_non_orientable_brute_force(self):
        # independent oracle: no sign assignment makes all ridges coherent
        k = get_fixture("rp2_6").complex
        facets = [tuple(sorted(f)) for f in k.facets]
        ridge_owners = {}
        for idx, f in enumerate(facets):
            for pos in range(3):
                ridge = frozenset(f) - {f[pos]}
                ridge_owners.setdefault(ridge, []).append((idx, pos))
        for signs in range(2 ** (len(facets) - 1)):
            assignment = [1] + [1 if (signs >> i) & 1 else -1 for i in range(9)]
            ok = True
            for owners in ridge_owners.values():
                (i, pi), (j, pj) = owners
                if assignment[i] * (-1) ** pi != -assignment[j] * (-1) ** pj:
                    ok = False
                    break
            assert not ok, "found a coherent orientation of RP^2"


class TestDualize:
    def test_tetrahedron(self):
        dual = dualize(simplex_boundary(4))
        assert dual.num_facets == 4
        assert len(dual.vertices) == 4
        assert all(len(v) == 3 for v in dual.vertices)

    def test_c47_to_d47(self):
        k = SimplicialComplex.of(7, gale_facets(7, 4))
        dual = dualize(k)
        assert dual.num_facets == 7
        assert len(dual.vertices) == 14
        assert all(len(v) == 4 for v in dual.vertices)

    def test_square_self_dual_counts(self):
        square = SimplicialComplex.of(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        dual = dualize(square)
        assert dual.num_facets == 4
        assert len(dual.vertices) == 4

    def test_counts_swap(self):
        for name in ("barnette", "cross4", "simplex4"):
            k = get_fixture(name).complex
            dual = dualize(k)
            assert dual.num_facets == f_vector(k)[0] == k.num_vertices
            assert len(dual.vertices) == len(k.facets)


class TestSimplePolytopeValidation:
    def test_simplicity_enforced(self):
        with pytest.raises(ValidationError):
            SimplePolytope.of(3, 2, [(1, 2, 3)])

    def test_unused_facet_rejected(self):
        with pytest.raises(ValidationError):
            SimplePolytope.of(3, 2, [(1, 2)])


class TestSharedCellValidation:
    """Complexes and polytopes share one validation pass: a cell may not
    repeat a label, and every carrier must lie in some cell."""

    def test_repeated_label_in_a_facet_rejected(self):
        # a set would read [1, 2, 2] as the edge 12 of the triangle boundary
        with pytest.raises(ValidationError, match=r"facet \[1, 2, 2\] repeats a label"):
            SimplicialComplex.of(3, [[1, 2, 2], [1, 3], [2, 3]])

    def test_repeated_label_in_a_vertex_rejected(self):
        with pytest.raises(ValidationError, match=r"vertex \[1, 1, 2\] repeats a label"):
            SimplePolytope.of(3, 2, [[1, 1, 2], [2, 3], [1, 3]])

    def test_complex_vertex_in_no_facet_rejected(self):
        with pytest.raises(ValidationError, match=r"vertices \[4, 5\] appear in no facet"):
            SimplicialComplex.of(5, [[1, 2], [2, 3], [1, 3]])
        # a huge count is never enumerated
        huge = rf"\[4, 5, 6, 7, 8\] and {10**30 - 8} more appear"
        with pytest.raises(ValidationError, match=rf"^vertices {huge} in no facet"):
            SimplicialComplex.of(10**30, [[1, 2], [2, 3], [1, 3]])

    def test_polytope_facet_in_no_vertex_rejected(self):
        with pytest.raises(ValidationError, match=r"facets \[4, 5\] appear in no vertex"):
            SimplePolytope.of(5, 2, [[1, 2], [2, 3], [1, 3]])
        huge = rf"\[4, 5, 6, 7, 8\] and {10**30 - 8} more appear"
        with pytest.raises(ValidationError, match=rf"^facets {huge} in no vertex"):
            SimplePolytope.of(10**30, 2, [[1, 2], [2, 3], [1, 3]])

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValidationError, match="vertex 4 out of range"):
            SimplicialComplex.of(3, [[1, 2], [2, 3], [3, 4], [1, 3]])
        with pytest.raises(ValidationError, match="facet 0 out of range"):
            SimplePolytope.of(3, 2, [[0, 1], [1, 2], [2, 3], [1, 3]])
        # the least of several strays
        with pytest.raises(ValidationError, match="vertex -2 out of range"):
            SimplicialComplex.of(3, [[1, 2], [2, 3], [3, 1000], [1, -2]])

    def test_both_kinds_expose_one_cell_table(self):
        k = get_fixture("barnette").complex
        p = dualize(k)
        assert p.cells == k.cells == k.facets == p.vertices
        assert p.num_carriers == k.num_carriers == 8
        assert p.ridges == k.ridges


class TestIntegerLabels:
    """Labels are taken with operator.index: int() read 1.5 as vertex 1
    and 1.9 as facet 1."""

    @pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), "1"], ids=repr)
    def test_non_integer_vertex_label_rejected(self, bad):
        with pytest.raises(ValidationError, match="must be integers"):
            SimplicialComplex.of(4, [[bad, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])

    @pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), "1"], ids=repr)
    def test_non_integer_facet_label_rejected(self, bad):
        with pytest.raises(ValidationError, match="must be integers"):
            SimplePolytope.of(3, 2, [[bad, 2], [2, 3], [1, 3]])

    def test_int_and_bool_labels_accepted(self):
        k = SimplicialComplex.of(4, [[True, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
        assert k == simplex_boundary(4)
        p = SimplePolytope.of(3, 2, [[True, 2], [2, 3], [1, 3]])
        assert p.vertices == (frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3}))
        assert all(type(f) is int for v in p.vertices for f in v)
