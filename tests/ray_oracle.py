"""Integer-only oracle for the fan check's overlap verdict: extreme rays.

For full-dimensional simplicial cones A and B in R^n, the intersection
A n B = {p : N_A p >= 0, N_B p >= 0} is a pointed polyhedral cone, where
the rows of N_A are the inner facet normals of A.  Each of its extreme rays
spans the kernel of n - 1 linearly independent rows among the 2n normals,
so it is the cofactor vector (generalized cross product) of those rows,
taken with the sign that meets all 2n inequalities.  This is the
double-description view of a polyhedral cone (Motzkin, Raiffa, Thompson
and Thrall 1953; Fukuda and Prodon, "Double description method revisited",
1996).  The interiors meet iff the sum of the distinct primitive extreme
rays lies strictly inside both cones: when they meet, A n B is
full-dimensional and the sum of all its extreme rays is interior to it;
when they do not, no point is.

Everything is computed from the generators with integer determinants by
cofactor expansion: no adjugate, no elimination and no LP, so it shares no
code with fanchk.cones_overlap_interior.
"""

from itertools import combinations
from math import gcd


def det(m):
    """Determinant by cofactor expansion along the first row."""
    if len(m) < 2:
        return m[0][0] if m else 1
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum(
        (-1) ** j * x * det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j, x in enumerate(m[0])
        if x
    )


def cofactor_vector(rows):
    """w with w . v = det(rows + [v]) for every v, from n - 1 rows in Z^n;
    zero exactly when the rows are linearly dependent."""
    n = len(rows) + 1
    return [
        (-1) ** (n - 1 + j) * det([list(r[:j]) + list(r[j + 1 :]) for r in rows])
        for j in range(n)
    ]


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def facet_normals(generators):
    """The inner normal of the facet opposite each generator."""
    normals = []
    for r, g in enumerate(generators):
        w = cofactor_vector([h for k, h in enumerate(generators) if k != r])
        normals.append(w if dot(w, g) > 0 else [-x for x in w])
    return normals


def strictly_inside(generators, point):
    return all(dot(w, point) > 0 for w in facet_normals(generators))


def primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def extreme_rays(normals):
    """The primitive extreme rays of the pointed cone {p : N p >= 0}."""
    n = len(normals[0])
    rays = set()
    for subset in combinations(normals, n - 1):
        w = cofactor_vector(subset)
        if not any(w):
            continue
        signs = {(d > 0) - (d < 0) for d in (dot(row, w) for row in normals)}
        if signs <= {0, 1}:
            rays.add(primitive(w))
        elif signs <= {0, -1}:
            rays.add(primitive([-x for x in w]))
    return sorted(rays)


def overlap_by_extreme_rays(a_generators, b_generators):
    """(overlap, w): whether the cone interiors meet, and the sum w of the
    extreme rays of their intersection, which is then strictly inside both."""
    normals = facet_normals(a_generators) + facet_normals(b_generators)
    rays = extreme_rays(normals)
    w = [sum(coords) for coords in zip(*rays)] or [0] * len(a_generators)
    return all(dot(row, w) > 0 for row in normals), tuple(w)
