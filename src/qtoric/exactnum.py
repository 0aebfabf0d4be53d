"""Exact scalar and linear-algebra kernel.

Everything here is exact: arbitrary-precision rationals (stdlib Fraction),
the quadratic field Q(sqrt 2), fraction-free (Bareiss) determinants over
the integers and over Z[sqrt 2], integer adjugates, GF(2) linear systems
with infeasibility certificates, and a positive kernel vector of a rational
matrix (phase-1 simplex with Bland's rule).  Z[sqrt 2] elements are int pairs;
clear_denominators brings rational and Q(sqrt 2) data into them and
divide_z2 takes a quotient back out.  No floating point is used anywhere
in a decision path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import DimensionError

Rationalish = Union[int, Fraction]


def _frac(x: Rationalish) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# Q(sqrt 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sqrt2Number:
    """An element a + b*sqrt(2) of Q(sqrt 2) with exact rational a, b."""

    rat: Fraction = Fraction(0)
    sqrt2: Fraction = Fraction(0)

    @staticmethod
    def of(rat: Rationalish = 0, sqrt2: Rationalish = 0) -> "Sqrt2Number":
        return Sqrt2Number(_frac(rat), _frac(sqrt2))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Sqrt2Number":
        o = coerce_sqrt2(other)
        return Sqrt2Number(self.rat + o.rat, self.sqrt2 + o.sqrt2)

    __radd__ = __add__

    def __neg__(self) -> "Sqrt2Number":
        return Sqrt2Number(-self.rat, -self.sqrt2)

    def __sub__(self, other) -> "Sqrt2Number":
        return self + (-coerce_sqrt2(other))

    def __rsub__(self, other) -> "Sqrt2Number":
        return coerce_sqrt2(other) - self

    def __mul__(self, other) -> "Sqrt2Number":
        o = coerce_sqrt2(other)
        return Sqrt2Number(
            self.rat * o.rat + 2 * self.sqrt2 * o.sqrt2,
            self.rat * o.sqrt2 + self.sqrt2 * o.rat,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Sqrt2Number":
        # (a + b*sqrt2)(a - b*sqrt2) = a^2 - 2 b^2, the field norm
        norm = self.rat * self.rat - 2 * self.sqrt2 * self.sqrt2
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt 2)")
        return Sqrt2Number(self.rat / norm, -self.sqrt2 / norm)

    def __truediv__(self, other) -> "Sqrt2Number":
        return self * coerce_sqrt2(other).inverse()

    def __rtruediv__(self, other) -> "Sqrt2Number":
        return coerce_sqrt2(other) * self.inverse()

    # -- order --------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(2), decided without floating point."""
        a, b = self.rat, self.sqrt2
        sa = (a > 0) - (a < 0)
        sb = (b > 0) - (b < 0)
        if sa == sb:
            return sa
        if sa == 0:
            return sb
        if sb == 0:
            return sa
        # opposite signs: |a| vs |b|*sqrt2, i.e. a^2 vs 2 b^2
        # (equality is impossible for rationals with b != 0)
        return sa if a * a > 2 * b * b else sb

    def is_zero(self) -> bool:
        return self.rat == 0 and self.sqrt2 == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        try:
            o = coerce_sqrt2(other)
        except TypeError:
            return NotImplemented
        return self.rat == o.rat and self.sqrt2 == o.sqrt2

    def __hash__(self) -> int:
        return hash((self.rat, self.sqrt2))

    def _cmp(self, other) -> int:
        """Sign of self - other; comparing with zero needs no subtraction."""
        o = coerce_sqrt2(other)
        return (self - o).sign() if o else self.sign()

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __repr__(self) -> str:
        return f"({self.rat} + {self.sqrt2}*sqrt2)"


SQRT2_ZERO = Sqrt2Number()
SQRT2_ONE = Sqrt2Number(Fraction(1))
SQRT2_HALF_ROOT = Sqrt2Number(Fraction(0), Fraction(1, 2))  # sqrt(2)/2


def coerce_sqrt2(x) -> Sqrt2Number:
    if isinstance(x, Sqrt2Number):
        return x
    if isinstance(x, (int, Fraction)):
        return Sqrt2Number(_frac(x))
    raise TypeError(f"cannot coerce {type(x).__name__} into Q(sqrt 2)")


def sign_sqrt2(x: Sqrt2Number) -> int:
    return coerce_sqrt2(x).sign()


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------


def det_int(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    a = [[int(x) for x in row] for row in m]
    if any(len(row) != len(a) for row in a):
        raise DimensionError("determinant of non-square matrix")
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate(m: Sequence[Sequence[int]]) -> Tuple[List[List[int]], int]:
    """Integer adjugate and determinant, so that m * adj = det * I.

    adj[j][i] is the (i, j) cofactor, each a det_int of a minor; det is the
    Laplace expansion of the first row over those cofactors.
    """
    a = [[int(x) for x in row] for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionError("adjugate of non-square matrix")
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        rest = a[:i] + a[i + 1 :]
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in rest]
            adj[j][i] = (-1) ** (i + j) * det_int(minor)
    det = sum(a[0][j] * adj[j][0] for j in range(n)) if n else 1
    return adj, det


def is_primitive(vector: Sequence[int]) -> bool:
    g = 0
    for x in vector:
        g = gcd(g, abs(int(x)))
    return g == 1


# ---------------------------------------------------------------------------
# Z[sqrt 2]: int pairs (x, y) standing for x + y*sqrt(2)
# ---------------------------------------------------------------------------

Z2 = Tuple[int, int]


def clear_denominators(rows: Sequence[Sequence]) -> Tuple[List[List[Z2]], int, bool]:
    """Entries (ints, Fractions or Sqrt2Numbers) as Z[sqrt 2] pairs times L.

    Returns (pairs, L, sqrt2): L is the least common multiple of every
    denominator, and sqrt2 says whether any entry is a Sqrt2Number.
    """
    sqrt2 = any(isinstance(x, Sqrt2Number) for row in rows for x in row)
    parts = [
        [(x.rat, x.sqrt2) if isinstance(x, Sqrt2Number) else (_frac(x), 0) for x in row]
        for row in rows
    ]
    scale = lcm(*(q.denominator for row in parts for pair in row for q in pair))
    pairs = [
        [(a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator))
         for a, b in row]
        for row in parts
    ]
    return pairs, scale, sqrt2


def sign_z2(v: Z2) -> int:
    """Exact sign of x + y*sqrt(2): x^2 against 2 y^2 when the signs differ."""
    x, y = v
    sx = (x > 0) - (x < 0)
    if sx * y >= 0:
        return sx or (y > 0) - (y < 0)
    return sx if x * x > 2 * y * y else -sx


def det_z2(m: Sequence[Sequence[Z2]]) -> Z2:
    """Exact determinant over Z[sqrt 2] by fraction-free (Bareiss) elimination.

    Each update is divisible by the previous pivot p; it is divided exactly
    by multiplying with the conjugate of p and dividing both parts by the
    integer norm p * conj(p), which is nonzero because sqrt 2 is irrational.
    """
    a = [list(row) for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionError("determinant of non-square matrix")
    if n == 0:
        return (1, 0)
    sign = 1
    px, py, norm = 1, 0, 1
    for k in range(n - 1):
        if a[k][k] == (0, 0):
            for i in range(k + 1, n):
                if a[i][k] != (0, 0):
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return (0, 0)
        pivot = a[k]
        kx, ky = pivot[k]
        for row in a[k + 1 :]:
            ix, iy = row[k]
            for j in range(k + 1, n):
                ax, ay = row[j]
                bx, by = pivot[j]
                # a_ij a_kk - a_ik a_kj, then times conj(p) over norm(p)
                tx = ax * kx + 2 * ay * ky - ix * bx - 2 * iy * by
                ty = ax * ky + ay * kx - ix * by - iy * bx
                row[j] = ((tx * px - 2 * ty * py) // norm, (ty * px - tx * py) // norm)
        px, py, norm = kx, ky, kx * kx - 2 * ky * ky
    x, y = a[n - 1][n - 1]
    return (sign * x, sign * y)


def divide_z2(num: Z2, den: Z2, sqrt2: bool):
    """num / den as a Sqrt2Number, or as a Fraction when sqrt2 is False."""
    (a, b), (c, e) = num, den
    if not sqrt2:
        return Fraction(a, c)
    norm = c * c - 2 * e * e
    return Sqrt2Number(Fraction(a * c - 2 * b * e, norm), Fraction(b * c - a * e, norm))


# ---------------------------------------------------------------------------
# GF(2) linear systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gf2System:
    """Linear system over GF(2); variables are labeled 1..num_vars.

    Each equation is (support, rhs): the variables in `support` must sum
    to `rhs` mod 2.
    """

    num_vars: int
    equations: Tuple[Tuple[frozenset, int], ...]

    @classmethod
    def of(cls, num_vars: int, equations: Iterable[Tuple[Iterable[int], int]]):
        eqs = tuple(
            (frozenset(int(v) for v in support), int(rhs) & 1)
            for support, rhs in equations
        )
        for support, _ in eqs:
            for v in support:
                if not 1 <= v <= num_vars:
                    raise DimensionError(f"variable {v} out of range 1..{num_vars}")
        return cls(num_vars, eqs)


@dataclass(frozen=True)
class Gf2Result:
    """Either a solution (with solution-space dimension) or a certificate.

    The certificate is a set of 1-based equation indices whose GF(2) sum is
    the inconsistent equation 0 = 1.
    """

    solution: Optional[Tuple[int, ...]]
    dimension: Optional[int]
    certificate: Optional[Tuple[int, ...]]

    @property
    def feasible(self) -> bool:
        return self.solution is not None


def gf2_solve(system: Gf2System) -> Gf2Result:
    """Gaussian elimination over GF(2) with deterministic pivoting.

    Pivots are chosen by lowest variable index first, then lowest equation
    index, so the returned solution is reproducible.
    """
    n = system.num_vars
    # rows as (variable bitmask, rhs bit, combination bitmask over equations)
    work = []
    for idx, (support, rhs) in enumerate(system.equations):
        mask = 0
        for v in support:
            mask |= 1 << (v - 1)
        work.append([mask, rhs, 1 << idx])
    rank = 0
    pivot_rows = []  # (variable index, row)
    for var in range(n):
        bit = 1 << var
        pivot = None
        for i in range(rank, len(work)):
            if work[i][0] & bit:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        for i in range(len(work)):
            if i != rank and (work[i][0] & bit):
                work[i][0] ^= prow[0]
                work[i][1] ^= prow[1]
                work[i][2] ^= prow[2]
        pivot_rows.append((var, prow))
        rank += 1
    for mask, rhs, combo in work[rank:]:
        if mask == 0 and rhs == 1:
            cert = tuple(
                i + 1 for i in range(len(system.equations)) if (combo >> i) & 1
            )
            return Gf2Result(None, None, cert)
    # free variables set to 0; after Jordan elimination each pivot row has
    # only its pivot among pivot variables, so the pivot value is the rhs
    solution = [0] * n
    for var, row in pivot_rows:
        solution[var] = row[1]
    return Gf2Result(tuple(solution), n - rank, None)


# ---------------------------------------------------------------------------
# Strict feasibility via exact phase-1 simplex
# ---------------------------------------------------------------------------


def strict_feasibility(rows: Sequence[Sequence[Rationalish]]) -> Optional[Tuple[Fraction, ...]]:
    """Some x > 0 with rows . x = 0 exactly over Q, or None if there is none.

    Substitutes x = 1 + s with s >= 0 (lossless, the system being a cone),
    so each row's right-hand side is -sum(row), and runs a phase-1 simplex
    with one artificial per row and Bland's rule (lowest eligible index),
    which guarantees termination.  Entries must be ints or Fractions; the
    witness is in Fractions.
    """
    zero, one = Fraction(0), Fraction(1)
    m = len(rows)
    n = len(rows[0]) if m else 0
    tab = []
    for i, coeffs in enumerate(rows):
        if len(coeffs) != n:
            raise DimensionError("coefficient row has wrong length")
        row = [_frac(c) for c in coeffs]
        b = -sum(row, zero)
        if b < 0:
            row = [-x for x in row]
            b = -b
        tab.append(row + [one if j == i else zero for j in range(m)] + [b])
    basis = [n + i for i in range(m)]
    width = n + m
    # reduced-cost row for minimizing the sum of artificials
    obj = [-sum((row[j] for row in tab), zero) for j in range(n)]
    obj += [zero] * m + [-sum((row[width] for row in tab), zero)]

    while True:
        entering = next((j for j in range(width) if obj[j] < 0), None)
        if entering is None:
            break
        # ratio test, ties to the lowest basic variable
        leaving = min(
            (i for i in range(m) if tab[i][entering] > 0),
            key=lambda i: (tab[i][width] / tab[i][entering], basis[i]),
            default=None,
        )
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
    s = [zero] * n
    for i in range(m):
        if basis[i] < n:
            s[basis[i]] = tab[i][width]
    return tuple(one + v for v in s)
