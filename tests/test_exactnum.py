"""Tests for the exact arithmetic kernel."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from qtoric import charmap, charsearch, exactnum, fanchk
from qtoric.charmap import CharacteristicMap
from qtoric.errors import DimensionError, ValidationError
from qtoric.exactnum import (
    Gf2System,
    Sqrt2Number,
    adjugate,
    bareiss_det,
    clear_denominators,
    coerce_sqrt2,
    det_int,
    det_z2,
    divide_z2,
    gf2_solve,
    is_primitive,
    sign_z2,
    strict_feasibility,
)
from qtoric.fanchk import cones_from_charmap
from qtoric.fixtures import d47_polar, get_fixture

from field_oracle import det_field, matrix_rank, row_reduce
from field_oracle import strict_feasibility as oracle_strict_feasibility
from test_fanchk import random_gl


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


def transpose(m):
    return [list(col) for col in zip(*m)]


def swap_every_step(rng, n, hi):
    """S * U with S the cyclic row shift and U upper triangular with a
    nonzero diagonal: at elimination step k the rows k..n-2 hold zeros in
    column k and only row n-1 does not, so every step swaps rows."""
    u = [[0] * j + [rng.choice((-1, 1)) * rng.randint(1, hi)]
         + [rng.randint(-hi, hi) for _ in range(n - j - 1)] for j in range(n)]
    return u[1:] + u[:1]


def singular_by_last_column(rng, n, hi):
    """A matrix whose leading (n-1) x (n-1) block is nonsingular, so the
    elimination runs to its last step, and whose last column is an integer
    combination of the others."""
    while True:
        m = [[rng.randint(-hi, hi) for _ in range(n - 1)] for _ in range(n)]
        if det_cofactor(m[:-1]):
            break
    coeffs = [rng.randint(-3, 3) for _ in range(n - 1)]
    return [row + [sum(c * x for c, x in zip(coeffs, row))] for row in m]


class TestDetIntEdges:
    """The Bareiss loop on the inputs that exercise its branches, against
    the cofactor oracle, for n = 0..6."""

    SIZES = range(1, 7)
    BIG = 2**70

    def cases(self, seed):
        rng = random.Random(seed)
        for n in self.SIZES:
            for hi in (3, self.BIG):
                for _ in range(4):
                    yield "swap", swap_every_step(rng, n, hi)
                    if n >= 2:
                        yield "singular", singular_by_last_column(rng, n, hi)
                    yield "random", [[rng.randint(-hi, hi) for _ in range(n)]
                                     for _ in range(n)]

    def test_matches_cofactor_oracle(self):
        assert det_int([]) == 1
        seen = set()
        for kind, m in self.cases(23):
            want = det_cofactor(m)
            assert det_int(m) == want, (kind, m)
            assert det_int(transpose(m)) == want, (kind, m)
            if kind == "singular":
                assert want == 0
            seen.add((kind, max(abs(x) for row in m for x in row) >= 2**64))
        assert seen == {(k, big) for k in ("swap", "singular", "random")
                        for big in (False, True)}

    @pytest.mark.parametrize(
        "ragged",
        [[[1, 2], [3]], [[1], [2, 3]], [[1, 2], [3, 4], [5, 6]], [[1, 2, 3], [4, 5, 6]],
         [[]], [[1, 2]]],
        ids=repr,
    )
    def test_ragged_input_rejected(self, ragged):
        with pytest.raises(DimensionError):
            det_int(ragged)


class TestBareissKernel:
    """bareiss_det, the unchecked kernel behind det_int and the search, on
    copies of seeded integer rows with n = 1..6: the cofactor oracle and
    det_int must agree with it, and det_int must leave its input alone."""

    def matrices(self):
        yield from (m for _, m in TestDetIntEdges().cases(29))
        yield from sparse_int_matrices(31, count=300)
        # a zero leading pivot a row swap replaces, and a zero first column
        yield [[0, 1, 2], [3, 4, 5], [6, 7, 9]]
        yield [[0, 0, 1], [0, 2, 3], [0, 4, 5]]

    def test_matches_det_int_and_cofactor_oracle(self):
        kinds = set()
        for m in self.matrices():
            rows = [list(row) for row in m]
            got = bareiss_det(rows)
            snapshot = [list(row) for row in m]
            assert got == det_int(m) == det_cofactor(m), m
            assert m == snapshot
            kinds.add(len(m))
            kinds.add("singular" if got == 0 else "nonsingular")
            if m[0][0] == 0 and len(m) > 1:
                kinds.add("swap")
        assert kinds >= {1, 2, 3, 4, 5, 6, "singular", "nonsingular", "swap"}

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for m in sparse_int_matrices(37, count=60):
            assert bareiss_det([list(row) for row in m]) == int(sympy.Matrix(m).det())

    @pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), "1"], ids=repr)
    def test_det_int_still_checks_every_entry(self, bad):
        for i, j in itertools.product(range(3), repeat=2):
            m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
            m[i][j] = bad
            with pytest.raises(TypeError):
                det_int(m)

    def test_vertex_sign_still_checks_shape(self):
        # ragged det_int input: TestDetIntEdges.test_ragged_input_rejected
        cm = get_fixture("d47").charmap
        with pytest.raises(DimensionError):
            charmap.vertex_sign(cm, (2, 1, 3))


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


def adjugate_by_minors(m):
    """The adjugate as n^2 minors, the oracle for the one elimination:
    adj[j][i] is the (i, j) cofactor, each a det_int of a minor, and det is
    the Laplace expansion of the first row over those cofactors."""
    a = [list(row) for row in m]
    n = len(a)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        rest = a[:i] + a[i + 1 :]
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in rest]
            adj[j][i] = (-1) ** (i + j) * det_int(minor)
    det = sum(a[0][j] * adj[j][0] for j in range(n)) if n else 1
    return adj, det


def sparse_int_matrices(seed, count=500):
    """Random integer matrices of size 1-6, about half their entries zero,
    so that pivots are often 0 and rows are swapped at any step."""
    rng = random.Random(seed)
    for k in range(count):
        n = 1 + k % 6
        yield [[rng.choice((0, rng.randint(-9, 9))) for _ in range(n)]
               for _ in range(n)]


class TestAdjugate:
    def test_product_is_det_times_identity(self):
        singular = 0
        for m in random_int_matrices(19):
            n = len(m)
            adj, det = adjugate(m)
            assert det == det_cofactor(m)
            if det == 0:
                assert adj is None
                singular += 1
                continue
            assert (adj, det) == adjugate_by_minors(m)
            for i in range(n):
                for j in range(n):
                    left = sum(m[i][k] * adj[k][j] for k in range(n))
                    right = sum(adj[i][k] * m[k][j] for k in range(n))
                    want = det if i == j else 0
                    assert left == want and right == want
        assert singular >= 50

    def test_matches_minors_with_row_swaps(self):
        nonsingular = 0
        for m in sparse_int_matrices(29):
            adj, det = adjugate(m)
            want = adjugate_by_minors(m)
            if want[1]:
                assert (adj, det) == want, m
                nonsingular += 1
            else:
                assert (adj, det) == (None, 0), m
        assert 150 < nonsingular < 450

    def test_unimodular_inverse_is_integral(self):
        m = [[0, 1], [-1, 1]]
        adj, det = adjugate(m)
        assert det == 1 and adj == [[1, -1], [1, 0]]

    def test_empty_and_non_square(self):
        assert adjugate([]) == ([], 1)
        with pytest.raises(DimensionError):
            adjugate([[1, 2]])

    def test_cones_cost_one_elimination_and_no_det_int(self, monkeypatch):
        # n^2 det_int minors per cone would read 304 det_int calls here
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for module in (exactnum, charmap, charsearch, fanchk):
            for name in ("det_int", "adjugate"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        fx = get_fixture("barnette")
        cones, _ = cones_from_charmap(fx.complex, fx.charmap)
        assert len(cones) == 19
        assert calls == {"adjugate": 19}


class TestIntegerEntries:
    """The integer kernel rejects non-integers instead of truncating them."""

    @pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), "1"], ids=repr)
    def test_non_integers_rejected(self, bad):
        with pytest.raises(TypeError):
            det_int([[bad, 0], [0, 1]])
        with pytest.raises(TypeError):
            adjugate([[bad, 0], [0, 1]])

    @pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), "1"], ids=repr)
    def test_is_primitive_rejects_non_integers(self, bad):
        # abs(int(x)) read (1.5, 2) as the primitive (1, 2)
        with pytest.raises(TypeError):
            is_primitive((bad, 2))

    @pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), "1"], ids=repr)
    def test_gf2_system_rejects_non_integers(self, bad):
        with pytest.raises(ValidationError, match="must be integers"):
            Gf2System.of(2, [({bad, 2}, 1)])
        with pytest.raises(ValidationError, match="must be integers"):
            Gf2System.of(2, [({1, 2}, bad)])

    def test_ints_and_bools_accepted(self):
        assert det_int([[True, False], [0, 1]]) == 1
        assert is_primitive((True, 2)) and not is_primitive((2, False))
        system = Gf2System.of(2, [({True, 2}, True), ([2], 3)])
        assert system.equations == ((frozenset({1, 2}), 1), (frozenset({2}), 1))
        assert all(type(v) is int and type(rhs) is int
                   for support, rhs in system.equations for v in support)
        adj, det = adjugate([[True, 2], [False, 3]])
        assert (adj, det) == ([[3, -2], [0, 1]], 3)
        assert all(type(x) is int for row in adj for x in row)


class TestSympyCrossCheck:
    def test_det_and_adjugate_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        for m in random_int_matrices(23, count=10):
            ref = sympy.Matrix(m)
            adj, det = adjugate(m)
            assert det_int(m) == det == int(ref.det())
            if det:
                assert sympy.Matrix(adj) == ref.adjugate()
                assert (adj, det) == adjugate_by_minors(m)
            else:
                assert adj is None


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
    """det m through the kernel: det of the scaled pairs over L^n.  det_z2
    must leave the pairs as it found them."""
    pairs, scale, sqrt2 = clear_denominators(m)
    copy = [list(row) for row in pairs]
    det = det_z2(pairs)
    assert pairs == copy
    return divide_z2(det, (scale ** len(m), 0), sqrt2)


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
            copy = [list(row) for row in pairs]
            x, y = det_z2(pairs)
            assert pairs == copy
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
        assert Sqrt2Number.of(0, 0).sign() == 0
        assert Sqrt2Number.of(1, -1).sign() == -1  # 1 < sqrt2
        assert Sqrt2Number.of(-4, 3).sign() == 1  # 3*sqrt2 > 4

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
            assert x.sign() * y.sign() == (x * y).sign()

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
    """Integer systems: 300 of shape n x 2n (n = 2..4), 250 of m x k, and
    200 of shape 4 x 8 laid out as fan-check lays out a cone pair."""
    rng = random.Random(seed)
    for n in (2, 3, 4):
        for _ in range(100):
            yield [[rng.randint(-3, 3) for _ in range(2 * n)] for _ in range(n)]
    for _ in range(250):
        m, k = rng.randint(1, 3), rng.randint(1, 5)
        yield [[rng.randint(-2, 2) for _ in range(k)] for _ in range(m)]
    for k in range(200):
        yield seeded_cone_pair(rng, shared=k % 4)


def seeded_cone_pair(rng, shared):
    """[A | -B] for two nonsingular 4x4 generator matrices with entries in
    [-3, 3], B taking `shared` of A's generators, as adjacent cones do."""
    while True:
        a = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        b = rng.sample(a, shared) + [[rng.randint(-3, 3) for _ in range(4)]
                                     for _ in range(4 - shared)]
        rng.shuffle(b)
        if det_int(a) and det_int(b):
            # the generators are the columns
            return [[*ra, *(-x for x in rb)] for ra, rb in zip(zip(*a), zip(*b))]


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


def moved_cone_pair_systems(seed, transforms=2):
    """The Barnette and D4(7) cone-pair systems, each also as U [A | -B] for
    seeded U in GL(4,Z): the rows change, the positive kernel does not."""
    rng = random.Random(seed)
    us = [random_gl(rng, 4) for _ in range(transforms)]
    # Barnette's 171 pairs come first, then D4(7)'s 91
    for rows in itertools.islice(cone_pair_systems(), 171 + 91):
        yield rows, [
            [[sum(x * row[j] for x, row in zip(urow, rows)) for j in range(8)] for urow in u]
            for u in us
        ]


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
        assert feasible + infeasible == 750
        assert feasible > 50 and infeasible > 50

    def test_cone_pairs(self):
        feasible, infeasible = self.check(cone_pair_systems())
        assert feasible + infeasible == 171 + 91 + 120
        assert feasible > 0 and infeasible > 0

    def test_moved_cone_pairs(self):
        moved_feasible = 0
        for rows, moved in moved_cone_pair_systems(1501):
            expected = strict_feasibility(rows) is not None
            for system in moved:
                witness = strict_feasibility(system)
                assert witness == self.oracle(system)
                assert (witness is not None) == expected
                if witness is not None:
                    moved_feasible += 1
                    # a positive kernel vector of the unmoved rows as well
                    assert all(sum(c * w for c, w in zip(row, witness)) == 0 for row in rows)
        assert moved_feasible > 0

    def test_fraction_and_bool_entries(self):
        # setup paths no int system reaches: a tableau in Fractions from the
        # start, and bools, which the setup takes as 0 and 1
        runs = 0
        for rows in seeded_systems(2024):
            witness = strict_feasibility(rows)
            variants = [[[Fraction(x, k) for x in row] for row in rows] for k in (2, 3, 4)]
            variants.append([[bool(x) if x in (0, 1) else x for x in row] for row in rows])
            for system in variants:
                assert strict_feasibility(system) == witness == self.oracle(system)
                runs += 1
            if witness is not None:
                assert all(type(w) is Fraction for w in witness)
            with pytest.raises(TypeError):
                strict_feasibility([[float(rows[0][0]), *rows[0][1:]], *rows[1:]])
        assert runs == 4 * 750

    def test_ratio_ties_go_to_the_lowest_basic_variable(self):
        # ratio ties broken to the highest basic variable give
        # (3, 1, 3/2, 21/4, 1, 15/4, 1, 1) here instead
        rows = [
            [-2, -1, 1, 0, -2, 2, -2, 2],
            [1, -1, -2, 2, 0, -2, -2, 0],
            [1, -1, 0, 0, -2, 0, -2, 2],
            [-2, -2, -2, 1, 2, 1, -1, 1],
        ]
        witness = strict_feasibility(rows)
        assert witness == (4, 2, 1, Fraction(13, 2), 1, Fraction(11, 2), 1, 1)
        assert witness == self.oracle(rows)
