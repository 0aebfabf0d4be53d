"""Exact scalar and linear-algebra kernel.

Everything here is exact: arbitrary-precision rationals (stdlib Fraction),
the quadratic field Q(sqrt 2), one fraction-free (Bareiss) determinant
kernel, the integer adjugate from one fraction-free Gauss-Jordan
elimination, GF(2) linear systems with infeasibility certificates, and a
positive kernel vector of a rational matrix (phase-1 simplex with Bland's
rule).  The determinant kernel, bareiss_det, has one checked integer entry,
det_int; the search also calls it on the int rows it builds, and det_z2
calls it once per subset of the sqrt 2 columns of a Z[sqrt 2] matrix.
Z[sqrt 2] elements are int pairs; clear_denominators brings rational and
Q(sqrt 2) data into them and divide_z2 takes a quotient back out.  No
floating point is used anywhere in a decision path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import getitem, index
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import DimensionError, ValidationError

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


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------


def det_int(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix.

    Entries must be integers (anything with __index__); a float, Fraction
    or string raises TypeError rather than being truncated.  Each row is
    copied once through operator.index, so m is never modified; a ragged
    matrix raises DimensionError, and the empty matrix has determinant 1.
    """
    a = [list(map(index, row)) for row in m]
    n = len(a)
    for row in a:
        if len(row) != n:
            raise DimensionError("determinant of non-square matrix")
    if n == 0:
        return 1
    return bareiss_det(a)


def bareiss_det(a: List[List[int]]) -> int:
    """Fraction-free (Bareiss) determinant of n >= 1 rows of ints.

    The kernel behind det_int, for callers whose rows are already lists of
    ints of length n: nothing is checked, and the rows are overwritten.
    Each elimination step reads its pivot row and pivot once, swapping in a
    lower row with a nonzero entry when the pivot is 0, and divides every
    update exactly by the previous pivot.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot = a[k]
        p = pivot[k]
        if not p:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], pivot
                    pivot = a[k]
                    p = pivot[k]
                    sign = -sign
                    break
            else:
                return 0
        rest = range(k + 1, n)
        for i in rest:
            row = a[i]
            f = row[k]
            for j in rest:
                row[j] = (row[j] * p - f * pivot[j]) // prev
        prev = p
    return sign * a[-1][-1]


def adjugate(m: Sequence[Sequence[int]]) -> Tuple[Optional[List[List[int]]], int]:
    """Integer adjugate and determinant, so that m * adj = det * I.

    One fraction-free Gauss-Jordan elimination: step k clears column k from
    every other row of [m | I], dividing exactly by the previous pivot, which
    ends in [d I | d m^-1] with d the determinant of the row-swapped m.
    Entries are taken as det_int takes them.  A singular m returns (None, 0):
    every caller rejects det 0.
    """
    n = len(m)
    a = [[*map(index, row), *(int(i == j) for j in range(n))] for i, row in enumerate(m)]
    if any(len(row) != 2 * n for row in a):
        raise DimensionError("adjugate of non-square matrix")
    sign = prev = 1
    for k in range(n):
        if not a[k][k]:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return None, 0
            a[k], a[i] = a[i], a[k]
            sign = -sign
        pivot = a[k]
        p = pivot[k]
        # columns up to k are final: the d I on the left is never read
        rest = range(k + 1, 2 * n)
        for row in a:
            if row is not pivot:
                f = row[k]
                for j in rest:
                    row[j] = (row[j] * p - f * pivot[j]) // prev
        prev = p
    return [[sign * x for x in row[n:]] for row in a], sign * prev


def as_ints(values: Iterable, what: str) -> Tuple[int, ...]:
    """The values as ints, for a constructor: a float, Fraction or string
    raises ValidationError naming `what` rather than being truncated, and a
    bool becomes 0 or 1, so a value built from one serializes as a number.
    A tuple of ints is returned as it is: the search builds each solution
    from shared candidate vectors, and copies would raise its memory."""
    if type(values) is tuple and all(type(x) is int for x in values):
        return values
    try:
        return tuple(map(index, values))
    except TypeError as exc:
        raise ValidationError(f"{what} must be integers: {exc}") from None


def as_int(value, what: str) -> int:
    """One value as an int, taken as as_ints takes each of its values."""
    try:
        return index(value)
    except TypeError as exc:
        raise ValidationError(f"{what} must be an integer: {exc}") from None


def is_primitive(vector: Sequence[int]) -> bool:
    """Whether the entries have gcd 1; a non-integer entry raises TypeError."""
    g = 0
    for x in vector:
        g = gcd(g, abs(index(x)))
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
    """Exact determinant over Z[sqrt 2], expanded over its sqrt 2 columns.

    Column j is P_j + sqrt2 Q_j with P and Q integer, and the determinant is
    multilinear in the columns, so det = sum over S of sqrt2^|S| det M_S.  S
    runs over the subsets of the columns with a nonzero Q, and M_S takes Q on
    S and P elsewhere.  Each det M_S is one bareiss_det call on fresh rows, so
    r such columns cost 2^r integer determinants; m is not modified.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionError("determinant of non-square matrix")
    if n == 0:
        return (1, 0)
    roots = [j for j in range(n) if any(row[j][1] for row in m)]
    parts = [0, 0]
    for r in range(len(roots) + 1):
        for s in combinations(roots, r):
            part = [int(j in s) for j in range(n)]  # 1 picks the sqrt 2 part
            det = bareiss_det([list(map(getitem, row, part)) for row in m])
            parts[r % 2] += 2 ** (r // 2) * det
    return parts[0], parts[1]


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
        try:
            eqs = tuple(
                (frozenset(map(index, support)), index(rhs) & 1)
                for support, rhs in equations
            )
        except TypeError as exc:
            raise ValidationError(
                f"variable labels and right-hand sides must be integers: {exc}"
            ) from None
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
    which guarantees termination; ratio-test ties go to the lowest basic
    variable.  Int entries stay ints, right-hand sides and objective row
    included, until a pivot divides them; only a Fraction or bool entry
    starts as a Fraction.  The ratio test compares b_i / a_i by
    cross-multiplying, b_i a_best < b_best a_i, so it divides nothing, and
    the pivots are those of an all-Fraction tableau.  Each pivot collects
    the pivot row's nonzero columns once and updates the pivot row, the
    other rows and the objective row in place on those columns only, since
    a zero in the pivot row changes nothing.  Entries must be ints or
    Fractions (a bool counts as 0 or 1); the witness is in Fractions.
    """
    one = Fraction(1)
    m = len(rows)
    n = len(rows[0]) if m else 0
    tab = []
    for i, coeffs in enumerate(rows):
        if len(coeffs) != n:
            raise DimensionError("coefficient row has wrong length")
        row = [c if type(c) is int else _frac(c) for c in coeffs]
        b = -sum(row)
        if b < 0:
            row = [-x for x in row]
            b = -b
        tab.append(row + [int(j == i) for j in range(m)] + [b])
    basis = [n + i for i in range(m)]
    width = n + m
    # reduced-cost row for minimizing the sum of artificials
    obj = [-sum(row[j] for row in tab) for j in range(n)]
    obj += [0] * m + [-sum(row[width] for row in tab)]

    while True:
        entering = next((j for j in range(width) if obj[j] < 0), None)
        if entering is None:
            break
        # ratio test by cross-multiplying (a > 0), ties to the lowest basic variable
        leaving = None
        for i, row in enumerate(tab):
            a = row[entering]
            if a > 0 and (
                leaving is None
                or (row[width] * a_best, basis[i]) < (b_best * a, basis[leaving])
            ):
                leaving, a_best, b_best = i, a, row[width]
        if leaving is None:
            # phase-1 objective is bounded below by 0; unreachable
            raise AssertionError("unbounded phase-1 simplex")
        pivot = tab[leaving]
        inv = one / pivot[entering]
        cols = [j for j, x in enumerate(pivot) if x]
        for j in cols:
            pivot[j] *= inv
        for row in (*tab, obj):
            f = row[entering]
            if f and row is not pivot:
                for j in cols:
                    row[j] -= f * pivot[j]
        basis[leaving] = entering

    if obj[width]:  # optimum = -obj[width] > 0
        return None
    s = [0] * n
    for i in range(m):
        if basis[i] < n:
            s[basis[i]] = tab[i][width]
    return tuple(one + v for v in s)
