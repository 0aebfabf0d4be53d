"""Slow field-arithmetic oracles for the integer and Z[sqrt 2] kernels.

row_reduce is the Gauss-Jordan reduction over Q or Q(sqrt 2) that the
package used before its geometry moved to Z[sqrt 2] determinants, and
hyperplane_polar is the supporting-hyperplane pass built on it: it solves
for the hyperplane <a, x> + c = 0 through every d-subset of the points and
reads the facets, the origin test and the polar vertices -a/c off it.
"""

from fractions import Fraction
from itertools import combinations

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
