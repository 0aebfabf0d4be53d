"""Slow field-arithmetic oracles for the integer and Z[sqrt 2] kernels.

row_reduce is the Gauss-Jordan reduction over Q or Q(sqrt 2) that the
package used before its geometry moved to Z[sqrt 2] determinants, and
hyperplane_polar is the supporting-hyperplane pass built on it: it solves
for the hyperplane <a, x> + c = 0 through every d-subset of the points and
reads the facets, the origin test and the polar vertices -a/c off it.

strict_feasibility and _phase1_simplex are the general LP front end the
package used before its LP was narrowed to a positive kernel vector:
arbitrary right-hand sides, free variables split into u - w, and a chosen
subset of strict variables.  They are kept verbatim, apart from the name of
the rational coercion, as the oracle for exactnum.strict_feasibility.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, List, Optional, Sequence, Tuple

from qtoric.errors import DimensionError
from qtoric.exactnum import Sqrt2Number, coerce_sqrt2


def _rational(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def row_reduce(a):
    """Gauss-Jordan reduction to reduced row echelon form, exactly.

    Works in Q(sqrt 2) when any entry is a Sqrt2Number and in Q otherwise.
    Returns (rows, pivot columns, det): the first len(pivots) rows are the
    nonzero rows of the reduced form, and det is the determinant when the
    matrix is square (zero when it is singular or not square).
    """
    if not a:
        return [], [], Fraction(1)
    if any(isinstance(x, Sqrt2Number) for row in a for x in row):
        field = coerce_sqrt2
    else:
        field = _rational
    m = [[field(x) for x in row] for row in a]
    num_rows, num_cols = len(m), len(m[0])
    if any(len(row) != num_cols for row in m):
        raise DimensionError("ragged rows")
    det = field(1)
    pivots = []
    for col in range(num_cols):
        rank = len(pivots)
        if rank == num_rows:
            break
        pivot = next((i for i in range(rank, num_rows) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        row = m[rank]
        det = det * row[col]
        inv = field(1) / row[col]
        row[col:] = [x * inv for x in row[col:]]
        for i in range(num_rows):
            f = m[i][col]
            if i != rank and f:
                m[i][col:] = [x - f * y for x, y in zip(m[i][col:], row[col:])]
        pivots.append(col)
    if num_rows != num_cols or len(pivots) < num_rows:
        det = field(0)
    return m, pivots, det


def det_field(a):
    """Exact determinant over the field of the entries."""
    if any(len(row) != len(a) for row in a):
        raise DimensionError("determinant of non-square matrix")
    return row_reduce(a)[2]


def matrix_rank(a):
    """Exact rank over the field of the entries."""
    return len(row_reduce(a)[1])


def supporting_hyperplane(points, subset):
    """(a, c, simplicial) for the hyperplane through the points of `subset`
    (1-based) when it supports the points, scaled so that <a, p> + c >= 0
    on every point; None when it does not support them or the subset is
    affinely dependent."""
    d = len(points[0])
    rows, pivots, _ = row_reduce([list(points[i - 1]) + [1] for i in subset])
    if len(pivots) < d:
        return None
    free = next(c for c in range(d + 1) if c not in pivots)
    kernel = [rows[0][pivots[0]]] * (d + 1)
    for r, col in enumerate(pivots):
        kernel[col] = -rows[r][free]
    normal, offset = kernel[:d], kernel[d]
    values = [
        sum((a * x for a, x in zip(normal, q)), offset)
        for i, q in enumerate(points, start=1)
        if i not in subset
    ]
    if any(v < 0 for v in values):
        if any(v > 0 for v in values):
            return None
        normal, offset, values = [-a for a in normal], -offset, [-v for v in values]
    elif not any(v > 0 for v in values):
        return None
    return normal, offset, all(values)


def hyperplane_polar(points):
    """(origin interior, facets, simplicial, {facet: polar vertex}).

    The polar vertex -a/c is given for every facet when 0 is interior, and
    the mapping is empty otherwise.
    """
    d = len(points[0])
    kept = []
    for subset in combinations(range(1, len(points) + 1), d):
        hyperplane = supporting_hyperplane(points, subset)
        if hyperplane is not None:
            kept.append((subset,) + hyperplane)
    interior = bool(kept) and all(offset > 0 for _, _, offset, _ in kept)
    vertices = {}
    if interior:
        for subset, normal, offset, _ in kept:
            vertices[frozenset(subset)] = tuple(-a / offset for a in normal)
    facets = [subset for subset, _, _, _ in kept]
    return interior, facets, all(s for _, _, _, s in kept), vertices


def _phase1_simplex(rows: List[List[Fraction]], rhs: List[Fraction]) -> Optional[List]:
    """Find x >= 0 with A x = b exactly over Q, or None if infeasible.

    Phase-1 simplex with Bland's rule (lowest eligible index), which
    guarantees termination.
    """
    zero, one = Fraction(0), Fraction(1)
    m = len(rows)
    n = len(rows[0]) if m else 0
    tab = []
    for i in range(m):
        row = list(rows[i])
        b = rhs[i]
        if b < 0:
            row = [-x for x in row]
            b = -b
        unit = [one if j == i else zero for j in range(m)]
        tab.append(row + unit + [b])
    basis = [n + i for i in range(m)]
    width = n + m
    # reduced-cost row for minimizing the sum of artificials
    obj = [zero] * (width + 1)
    for j in range(n):
        obj[j] = -sum((tab[i][j] for i in range(m)), zero)
    obj[width] = -sum((tab[i][width] for i in range(m)), zero)

    while True:
        entering = next((j for j in range(width) if obj[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best = None
        for i in range(m):
            coef = tab[i][entering]
            if coef > 0:
                ratio = tab[i][width] / coef
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            # phase-1 objective is bounded below by 0; unreachable
            raise AssertionError("unbounded phase-1 simplex")
        inv = one / tab[leaving][entering]
        tab[leaving] = [x * inv for x in tab[leaving]]
        for i in range(m):
            f = tab[i][entering]
            if i != leaving and f:
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leaving])]
        f = obj[entering]
        if f:
            obj = [x - f * y for x, y in zip(obj, tab[leaving])]
        basis[leaving] = entering

    if obj[width]:  # optimum = -obj[width] > 0
        return None
    x = [zero] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][width]
    return x


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: Optional[Tuple]


def strict_feasibility(
    equations: Sequence[Tuple[Sequence, object]],
    num_vars: int,
    strict_positive: Iterable[int],
) -> FeasibilityResult:
    """Decide solvability of exact linear equalities with some variables > 0.

    `equations` is a list of (coefficients, rhs) with variables labeled
    1..num_vars; variables in `strict_positive` must be > 0, the rest are
    free.  Strict variables are substituted v = 1 + s with s >= 0 and free
    variables v = u - w, then an exact phase-1 simplex decides feasibility
    over Q; the data must be ints or Fractions, and the witness is in
    Fractions.  The substitution is lossless for positively homogeneous
    systems (cones), which is how every caller in this package uses it.
    """
    strict = set(int(v) for v in strict_positive)
    for v in strict:
        if not 1 <= v <= num_vars:
            raise DimensionError(f"variable {v} out of range 1..{num_vars}")
    for coeffs, _ in equations:
        if len(coeffs) != num_vars:
            raise DimensionError("coefficient row has wrong length")
    zero = Fraction(0)
    # column layout: one slack per strict var, (u, w) pair per free var
    columns: List[Tuple[int, int]] = []  # (variable, +1/-1 multiplier)
    for v in range(1, num_vars + 1):
        if v in strict:
            columns.append((v, 1))
        else:
            columns.append((v, 1))
            columns.append((v, -1))
    rows: List[List] = []
    rhs: List = []
    for coeffs, b in equations:
        cs = [_rational(c) for c in coeffs]
        shift = sum((cs[v - 1] for v in strict), zero)
        rows.append([cs[var - 1] * mult for var, mult in columns])
        rhs.append(_rational(b) - shift)
    x = _phase1_simplex(rows, rhs) if rows else [zero] * len(columns)
    if x is None:
        return FeasibilityResult(False, None)
    witness = [zero] * num_vars
    for value, (var, mult) in zip(x, columns):
        witness[var - 1] = witness[var - 1] + (value if mult > 0 else -value)
    for v in strict:
        witness[v - 1] = witness[v - 1] + 1
    return FeasibilityResult(True, tuple(witness))
