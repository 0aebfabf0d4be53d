"""Tests for the exact arithmetic kernel."""

import itertools
import random
from fractions import Fraction

import pytest

from qtoric.charmap import CharacteristicMap
from qtoric.errors import DimensionError
from qtoric.exactnum import (
    Gf2System,
    Sqrt2Number,
    adjugate,
    clear_denominators,
    coerce_sqrt2,
    det_int,
    det_z2,
    divide_z2,
    gf2_solve,
    sign_sqrt2,
    sign_z2,
    strict_feasibility,
)
from qtoric.fanchk import cones_from_charmap
from qtoric.fixtures import d47_polar, get_fixture

from field_oracle import det_field, matrix_rank, row_reduce
from field_oracle import strict_feasibility as oracle_strict_feasibility


def det_cofactor(m):
    """Independent determinant oracle by cofactor expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


class TestDetInt:
    def test_identity_4x4(self):
        m = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        assert det_int(m) == 1

    def test_pentagon_first_vertex(self):
        # columns (0,-1) and (1,1)
        assert det_int([[0, 1], [-1, 1]]) == 1

    def test_barnette_base_columns(self):
        cols = [(1, 0, 0, 0), (0, 1, -1, 2), (0, 1, 0, 0), (0, 0, 1, -1)]
        m = [[cols[j][i] for j in range(4)] for i in range(4)]
        assert det_cofactor(m) == 1  # oracle
        assert det_int(m) == 1

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            det_int([[1, 2, 3], [4, 5, 6]])

    def test_matches_cofactor_expansion(self):
        rng = random.Random(7)
        for n in range(1, 6):
            for _ in range(30):
                m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                assert det_int(m) == det_cofactor(m)

    def test_column_negation_negates_det(self):
        rng = random.Random(11)
        for _ in range(50):
            m = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
            col = rng.randrange(4)
            flipped = [
                [-x if j == col else x for j, x in enumerate(row)] for row in m
            ]
            assert det_int(flipped) == -det_int(m)



def random_int_matrices(seed, count=30):
    """Random integer matrices of size 1-5; a third of them made singular."""
    rng = random.Random(seed)
    for n in range(1, 6):
        for k in range(count):
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if k % 3 == 0:
                # last row = sum of the others (zero row when n = 1)
                m[-1] = [sum(row[j] for row in m[:-1]) for j in range(n)]
            yield m


class TestAdjugate:
    def test_product_is_det_times_identity(self):
        singular = 0
        for m in random_int_matrices(19):
            n = len(m)
            adj, det = adjugate(m)
            assert det == det_cofactor(m)
            singular += det == 0
            for i in range(n):
                for j in range(n):
                    left = sum(m[i][k] * adj[k][j] for k in range(n))
                    right = sum(adj[i][k] * m[k][j] for k in range(n))
                    want = det if i == j else 0
                    assert left == want and right == want
        assert singular >= 50

    def test_unimodular_inverse_is_integral(self):
        m = [[0, 1], [-1, 1]]
        adj, det = adjugate(m)
        assert det == 1 and adj == [[1, -1], [1, 0]]

    def test_empty_and_non_square(self):
        assert adjugate([]) == ([], 1)
        with pytest.raises(DimensionError):
            adjugate([[1, 2]])


class TestSympyCrossCheck:
    def test_det_and_adjugate_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        for m in random_int_matrices(23, count=10):
            ref = sympy.Matrix(m)
            adj, det = adjugate(m)
            assert det_int(m) == det == int(ref.det())
            assert sympy.Matrix(adj) == ref.adjugate()


class TestRowReduce:
    """The field oracle that the Z[sqrt 2] kernel is tested against."""

    def test_reduced_form_pivots_and_det(self):
        rows, pivots, det = row_reduce([[0, 2, 4], [1, 1, 1], [2, 4, 6]])
        assert pivots == [0, 1]
        assert rows[:2] == [[1, 0, -1], [0, 1, 2]]
        assert rows[2] == [0, 0, 0]
        assert det == 0
        assert row_reduce([[0, 2], [3, 1]])[2] == -6

    def test_rank_over_both_fields(self):
        root = Sqrt2Number.of(0, 1)
        assert matrix_rank([[1, 2], [2, 4]]) == 1
        assert matrix_rank([[root, 2], [1, root]]) == 1  # row 1 = sqrt2 * row 2
        assert matrix_rank([[root, 1], [1, root]]) == 2
        assert matrix_rank([]) == 0


def random_q_sqrt2_matrices(seed, count=30):
    """Random Q(sqrt 2) matrices of size 1-5 with small denominators; a third
    of them singular (last row a Z[sqrt 2] combination of the others)."""
    rng = random.Random(seed)

    def entry():
        return Sqrt2Number.of(
            Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))),
            Fraction(rng.randint(-2, 2), rng.choice((1, 2))),
        )

    for n in range(1, 6):
        for k in range(count):
            m = [[entry() for _ in range(n)] for _ in range(n)]
            if k % 3 == 0:
                coeffs = [Sqrt2Number.of(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in m[:-1]]
                m[-1] = [
                    sum((c * row[j] for c, row in zip(coeffs, m[:-1])), Sqrt2Number())
                    for j in range(n)
                ]
            yield m


def z2_det_of(m):
    """det m through the kernel: det of the scaled pairs over L^n."""
    pairs, scale, sqrt2 = clear_denominators(m)
    return divide_z2(det_z2(pairs), (scale ** len(m), 0), sqrt2)


class TestZSqrt2Kernel:
    def test_det_matches_field_oracle(self):
        singular = 0
        for m in random_q_sqrt2_matrices(29):
            det = z2_det_of(m)
            assert type(det) is Sqrt2Number
            assert det == det_field(m)
            singular += det == 0
        assert singular >= 50

    def test_rational_det_stays_rational(self):
        for m in random_int_matrices(31, count=10):
            det = z2_det_of(m)
            assert type(det) is Fraction
            assert det == det_int(m) == det_field(m)

    def test_sign_matches_sqrt2_sign(self):
        for x in range(-12, 13):
            for y in range(-9, 10):
                assert sign_z2((x, y)) == Sqrt2Number.of(x, y).sign()

    def test_clear_denominators(self):
        rows = [[Fraction(1, 2), Sqrt2Number.of(Fraction(1, 3), Fraction(-3, 4))], [2, 0]]
        pairs, scale, sqrt2 = clear_denominators(rows)
        assert scale == 12 and sqrt2
        assert pairs == [[(6, 0), (4, -9)], [(24, 0), (0, 0)]]
        assert clear_denominators([[1, Fraction(2, 3)]]) == ([[(3, 0), (2, 0)]], 3, False)

    def test_divide(self):
        num, den = (3, 1), (1, -1)  # (3 + sqrt2) / (1 - sqrt2) = -5 - 4 sqrt2
        assert divide_z2(num, den, True) == Sqrt2Number.of(-5, -4)
        assert divide_z2((6, 0), (-4, 0), False) == Fraction(-3, 2)

    def test_empty_and_non_square(self):
        assert det_z2([]) == (1, 0)
        with pytest.raises(DimensionError):
            det_z2([[(1, 0), (2, 0)]])

    def test_det_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        root = sympy.sqrt(2)
        field = sympy.QQ.algebraic_field(root)
        gen = field.from_sympy(root)
        for m in random_q_sqrt2_matrices(37, count=6):
            pairs, _, _ = clear_denominators(m)
            x, y = det_z2(pairs)
            rows = [[field.convert(a) + field.convert(b) * gen for a, b in row] for row in pairs]
            det = DomainMatrix(rows, (len(rows), len(rows)), field).det()
            assert sympy.expand(field.to_sympy(det) - (x + y * root)) == 0


class TestFieldIndependence:
    """A rational system gives equal answers as ints and embedded in Q(sqrt 2),
    the rational run stays in Fraction, and the LP takes rational data only."""

    @staticmethod
    def embed(m):
        return [[Sqrt2Number.of(x) for x in row] for row in m]

    def test_det_and_solve(self):
        for m in random_int_matrices(37, count=10):
            det = z2_det_of(m)
            assert type(det) is Fraction
            assert det == det_int(m) == z2_det_of(self.embed(m))

    def test_strict_feasibility(self):
        rng = random.Random(41)
        feasible = 0
        for _ in range(40):
            k = rng.randint(2, 5)
            rows = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(rng.randint(1, 3))]
            witness = strict_feasibility(rows)
            with pytest.raises(TypeError):
                strict_feasibility(self.embed(rows))
            if witness is not None:
                feasible += 1
                assert all(type(w) is Fraction for w in witness)
        assert feasible > 0

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            clear_denominators([[0.5]])
        with pytest.raises(TypeError):
            strict_feasibility([[1.0, -1]])

class TestSqrt2:
    def test_sign_examples(self):
        assert sign_sqrt2(Sqrt2Number.of(0, 0)) == 0
        assert sign_sqrt2(Sqrt2Number.of(1, -1)) == -1  # 1 < sqrt2
        assert sign_sqrt2(Sqrt2Number.of(-4, 3)) == 1  # 3*sqrt2 > 4

    def test_sign_multiplicative(self):
        rng = random.Random(3)
        for _ in range(200):
            x = Sqrt2Number.of(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            )
            y = Sqrt2Number.of(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            )
            assert sign_sqrt2(x) * sign_sqrt2(y) == sign_sqrt2(x * y)

    def test_field_inverse(self):
        x = Sqrt2Number.of(Fraction(3, 2), Fraction(-1, 3))
        assert (x * x.inverse()) == Sqrt2Number.of(1, 0)
        with pytest.raises(ZeroDivisionError):
            Sqrt2Number.of(0, 0).inverse()

    def test_ordering(self):
        assert Sqrt2Number.of(0, 1) > 1  # sqrt2 > 1
        assert Sqrt2Number.of(0, 1) < Fraction(3, 2)  # sqrt2 < 1.5


def brute_force_gf2(system: Gf2System):
    """Exhaustive enumeration oracle over all 2^n assignments."""
    solutions = []
    for bits in itertools.product([0, 1], repeat=system.num_vars):
        ok = True
        for support, rhs in system.equations:
            if sum(bits[v - 1] for v in support) % 2 != rhs:
                ok = False
                break
        if ok:
            solutions.append(bits)
    return solutions


class TestGf2:
    def test_back_substitution(self):
        system = Gf2System.of(2, [({1, 2}, 1), ({2}, 1)])
        result = gf2_solve(system)
        assert result.solution == (0, 1)
        assert result.dimension == 0

    def test_homogeneous_has_zero_solution(self):
        system = Gf2System.of(5, [({i, i % 5 + 1}, 0) for i in range(1, 6)])
        result = gf2_solve(system)
        assert result.feasible
        assert result.solution == (0, 0, 0, 0, 0)

    def test_agrees_with_enumeration(self):
        rng = random.Random(13)
        for num_vars in (3, 5, 8, 12, 16):
            for _ in range(4):
                eqs = []
                for _ in range(rng.randint(1, num_vars + 2)):
                    support = {
                        v for v in range(1, num_vars + 1) if rng.random() < 0.4
                    }
                    eqs.append((support, rng.randint(0, 1)))
                system = Gf2System.of(num_vars, eqs)
                result = gf2_solve(system)
                oracle = brute_force_gf2(system)
                if result.feasible:
                    assert tuple(result.solution) in set(oracle)
                    assert len(oracle) == 2 ** result.dimension
                else:
                    assert oracle == []

    def test_infeasibility_certificate_combines_to_contradiction(self):
        system = Gf2System.of(
            3, [({1, 2}, 0), ({2, 3}, 0), ({1, 3}, 1), ({1}, 0)]
        )
        result = gf2_solve(system)
        assert not result.feasible
        support = set()
        rhs = 0
        for idx in result.certificate:
            eq_support, eq_rhs = system.equations[idx - 1]
            support ^= eq_support
            rhs ^= eq_rhs
        assert support == set() and rhs == 1


def cone_overlap_2d_oracle(a1, a2, b1, b2):
    """Interior overlap of 2D cones by exact angular-interval reasoning.

    Assumes each cone is salient (generators not opposite) and
    full-dimensional.  A point is interior iff it is a strictly positive
    combination of the generators; for 2D cones interiors overlap iff the
    open angular sectors intersect.
    """

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    def strictly_inside(p, g1, g2):
        s = cross(g1, g2)
        return cross(g1, p) * s > 0 and cross(p, g2) * s > 0

    # sample candidate interior directions: generator sums and midpoints
    candidates = []
    for u in (a1, a2, b1, b2):
        for v in (a1, a2, b1, b2):
            candidates.append((u[0] + v[0], u[1] + v[1]))
    candidates += [a1, a2, b1, b2]
    for p in candidates:
        if strictly_inside(p, a1, a2) and strictly_inside(p, b1, b2):
            return True
    return False


class TestStrictFeasibility:
    def test_equal_pair(self):
        x, y = strict_feasibility([[1, -1]])
        assert x == y and x > 0

    def test_opposite_cones_infeasible(self):
        # cone(e1,e2) vs cone(-e1,e2): x1 + y1 = 0, x2 - y2 = 0 with all > 0
        assert strict_feasibility([[1, 0, 1, 0], [0, 1, 0, -1]]) is None

    def test_witness_satisfies_equations(self):
        rng = random.Random(17)
        for _ in range(30):
            k = rng.randint(2, 4)
            rows = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(rng.randint(1, 2))]
            witness = strict_feasibility(rows)
            if witness is not None:
                assert len(witness) == k and all(w > 0 for w in witness)
                for row in rows:
                    assert sum(c * w for c, w in zip(row, witness)) == 0

    def test_no_rows_and_ragged_rows(self):
        assert strict_feasibility([]) == ()
        with pytest.raises(DimensionError):
            strict_feasibility([[1, 2], [1]])


def seeded_systems(seed):
    """Integer systems: 300 of shape n x 2n (n = 2..4) and 250 of m x k."""
    rng = random.Random(seed)
    for n in (2, 3, 4):
        for _ in range(100):
            yield [[rng.randint(-3, 3) for _ in range(2 * n)] for _ in range(n)]
    for _ in range(250):
        m, k = rng.randint(1, 3), rng.randint(1, 5)
        yield [[rng.randint(-2, 2) for _ in range(k)] for _ in range(m)]


def cone_pair_systems():
    """[A | -B] for every cone pair of Barnette, D4(7) and cross4 (+-e_i)."""
    unit = [[int(i == j) for j in range(4)] for i in range(4)]
    cross4 = CharacteristicMap.of(4, unit + [[-x for x in row] for row in unit])
    barnette = get_fixture("barnette")
    for structure, cm in (
        (barnette.complex, barnette.charmap),
        (d47_polar().polytope, get_fixture("d47").charmap),
        (get_fixture("cross4").complex, cross4),
    ):
        cones, _ = cones_from_charmap(structure, cm)
        for a, b in itertools.combinations(cones, 2):
            yield [ra + [-x for x in rb] for ra, rb in zip(a.matrix_rows(), b.matrix_rows())]


class TestStrictFeasibilityOracle:
    """Same feasibility and the identical witness as the general LP front
    end, run with every variable strict and right-hand side 0."""

    @staticmethod
    def oracle(rows):
        k = len(rows[0])
        result = oracle_strict_feasibility([(row, 0) for row in rows], k, range(1, k + 1))
        return result.witness if result.feasible else None

    def check(self, systems):
        feasible = infeasible = 0
        for rows in systems:
            witness = strict_feasibility(rows)
            assert witness == self.oracle(rows)
            if witness is None:
                infeasible += 1
            else:
                feasible += 1
                assert all(type(w) is Fraction for w in witness)
        return feasible, infeasible

    def test_seeded_systems(self):
        feasible, infeasible = self.check(seeded_systems(2024))
        assert feasible + infeasible == 550
        assert feasible > 50 and infeasible > 50

    def test_cone_pairs(self):
        feasible, infeasible = self.check(cone_pair_systems())
        assert feasible + infeasible == 171 + 91 + 120
        assert feasible > 0 and infeasible > 0
