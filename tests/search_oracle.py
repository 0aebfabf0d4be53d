"""Unpruned brute-force oracle for the bounded characteristic-map search.

brute_force_search fixes the base parity the way charsearch.plan_search
does, then tries every assignment of candidate vectors to the free
carriers and tests every cell, with no carrier order and no pruning by
depth.  It is exponential in the number of free carriers, so it serves the
small fixtures only (triangle, square).  It lists its own candidate vectors
and takes each determinant from ray_oracle.det, a cofactor expansion, so it
shares neither the candidate list nor the Bareiss kernel with the search.
"""

from itertools import product
from math import gcd

from qtoric.cyclic import permutation_parity

from ray_oracle import det


def candidates(n, bound):
    """The primitive vectors with entries in [-bound, bound], lexicographic."""
    return [v for v in product(range(-bound, bound + 1), repeat=n) if gcd(*v) == 1]


def brute_force_search(structure, orientation, base, bound, goal):
    """The solutions as carrier-ordered vector tuples, in enumeration order."""
    n = len(base)
    m = structure.num_carriers
    free = [i for i in range(1, m + 1) if i not in base]
    cells = structure.cells
    tuples = orientation.tuples
    base_pos = list(cells).index(frozenset(base))
    if permutation_parity(base, tuples[base_pos]) < 0:
        tuples = orientation.reversed().tuples
    pinned = {c: tuple(1 if i == k else 0 for i in range(n))
              for k, c in enumerate(base)}
    solutions = []
    for combo in product(candidates(n, bound), repeat=len(free)):
        assignment = dict(pinned)
        assignment.update(zip(free, combo))
        ok = True
        for tup in tuples:
            d = det([assignment[i] for i in tup])
            ok = d == 1 if goal == "all_positive" else abs(d) == 1
            if not ok:
                break
        if ok:
            solutions.append(tuple(assignment[i] for i in range(1, m + 1)))
    return solutions
