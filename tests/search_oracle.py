"""Unpruned brute-force oracle for the bounded characteristic-map search.

brute_force_search fixes the base parity the way charsearch.plan_search
does, then tries every assignment of candidate vectors to the free
carriers and tests every cell, with no carrier order and no pruning by
depth.  It is exponential in the number of free carriers, so it serves the
small fixtures only (triangle, square).  It lists its own candidate vectors
and takes each determinant from ray_oracle.det, a cofactor expansion, so it
shares neither the candidate list nor the Bareiss kernel with the search.

unshared_search is charsearch.search's loop without the sign symmetry: it
eliminates the cells of a candidate and of its negation separately, so it
checks that sharing one verdict between them leaves the whole SearchResult
unchanged, nodes and stop included.
"""

from itertools import product
from math import gcd

from qtoric import charsearch
from qtoric.charmap import CharacteristicMap
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


def unshared_search(structure, orientation, config):
    """charsearch.search without the sign symmetry: the same plan, candidate
    list and depth-first loop, but every candidate's cells are eliminated,
    a candidate's negation included.  It calls the kernel as
    charsearch.bareiss_det, so a test that counts the search's determinants
    there counts this loop's too."""
    plan = charsearch.plan_search(structure, orientation, config)
    n = len(config.base_vertex)
    vectors = [None] * (structure.num_carriers + 1)
    for k, carrier in enumerate(config.base_vertex):
        vectors[carrier] = tuple(1 if i == k else 0 for i in range(n))
    candidates = charsearch.candidate_vectors(n, config.bound, config.node_budget + 1)
    solutions = []
    nodes = 0

    def dfs(depth):
        nonlocal nodes
        if depth == len(plan.order):
            solutions.append(CharacteristicMap(n, tuple(vectors[1:])))
            return len(solutions) != config.solution_cap
        carrier, completed = plan.order[depth], plan.completed[depth]
        for cand in candidates:
            if nodes == config.node_budget:
                return False
            nodes += 1
            vectors[carrier] = cand
            for t, accepted in completed:
                if charsearch.bareiss_det([list(vectors[i]) for i in t]) not in accepted:
                    break
            else:
                if not dfs(depth + 1):
                    return False
        return True

    exhaustive = dfs(0)
    return charsearch.SearchResult(tuple(solutions), nodes, exhaustive)
