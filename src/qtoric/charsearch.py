"""Bounded backtracking search for characteristic maps.

The GL(n,Z) basis freedom is quotiented by pinning the base vertex's
vectors to the identity.  `plan_search` validates the inputs once and
fixes the plan: the carrier order, and the cells each depth completes,
each as its carriers in increasing order with the determinants accepted
over them, read from the one `GOALS` table and the cell's parity.  A
depth lists its cells fail first, fewest base-vertex carriers first.
`search` walks that plan in one depth-first loop, keeping a candidate
only when every cell it completes is accepted, and dropping it at the
first cell that is not.  Under a goal whose signs are closed under
negation (unimodular), a candidate's negation takes the candidate's
verdict without an elimination.  The search is exhaustive within its
entry bound only: evidence, not proof, outside it.
"""

from __future__ import annotations

from itertools import islice, product
from typing import Dict, List, Optional, Sequence, Tuple

from .charmap import CharacteristicMap
from .complexes import CellTable, OrientationData, OrientedCells, permutation_parity
from .errors import NormalizationError, ValidationError
from .exactnum import adjugate, as_int, as_ints, bareiss_det, is_primitive
from .values import Value

# goal -> the signs it accepts at every cell: dets over its positive tuple
GOALS: Dict[str, Tuple[int, ...]] = {"unimodular": (1, -1), "all_positive": (1,)}


class SearchConfig(Value):
    """Bounded-entry search specification.

    base_vertex is an ordered carrier tuple naming one cell; its vectors are
    pinned to e_1..e_n in that order.  goal is a key of GOALS.
    """

    _fields = ("base_vertex", "bound", "goal", "order", "solution_cap", "node_budget")

    def __init__(self, base_vertex: Tuple[int, ...], bound: int = 1, goal: str = "unimodular",
                 order: Optional[Tuple[int, ...]] = None, solution_cap: Optional[int] = None,
                 node_budget: int = 10**9):
        # the one place numbers become ints, so a bool is kept as 0 or 1
        base_vertex = as_ints(base_vertex, "base_vertex")
        bound = as_int(bound, "bound")
        if order is not None:
            order = as_ints(order, "order")
        if solution_cap is not None:
            solution_cap = as_int(solution_cap, "solution_cap")
        node_budget = as_int(node_budget, "node_budget")
        if bound < 1:
            raise ValidationError("entry bound must be >= 1")
        if goal not in GOALS:
            raise ValidationError(f"unknown goal {goal!r}")
        if solution_cap is not None and solution_cap < 1:
            raise ValidationError(f"solution cap must be >= 1, not {solution_cap}")
        if node_budget < 0:
            raise ValidationError(f"node budget must be >= 0, not {node_budget}")
        self.__dict__.update(base_vertex=base_vertex, bound=bound, goal=goal, order=order,
                             solution_cap=solution_cap, node_budget=node_budget)


class SearchPlan(Value):
    """What the search loop reads, validated by plan_search: order[k] is the
    carrier assigned at depth k, and completed[k] holds, for each cell that
    assigning it completes, the cell's carriers in increasing order and the
    determinants accepted over them.  Those cells come in increasing count
    of base-vertex carriers, ties in cell order; the order moves only how
    many determinants a search evaluates, never its nodes or solutions."""

    _fields = ("order", "completed")

    def __init__(self, order: Tuple[int, ...],
                 completed: Tuple[Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...], ...]):
        self.__dict__.update(order=order, completed=completed)


class SearchResult(Value):
    """The solutions in search order, the nodes explored, and whether the
    search ran to its end (no solution cap or node budget stopped it)."""

    _fields = ("solutions", "nodes", "exhaustive")

    def __init__(self, solutions: Tuple[CharacteristicMap, ...], nodes: int, exhaustive: bool):
        self.__dict__.update(solutions=solutions, nodes=nodes, exhaustive=exhaustive)


def normalize_map(
    cm: CharacteristicMap, base_ordered: Sequence[int]
) -> CharacteristicMap:
    """Left-multiply every vector by the inverse of the base-vertex minor.

    The minor is taken in the given (positively ordered) column order, so
    the base vertex's columns become the identity.  When that minor has
    det +1 the transform preserves every cell sign.
    """
    n = cm.rank
    if len(base_ordered) != n:
        raise ValidationError("base vertex tuple has wrong length")
    cols = [cm.vector(i) for i in base_ordered]
    minor = [[cols[j][i] for j in range(n)] for i in range(n)]
    adj, d = adjugate(minor)
    if d == 0:
        raise NormalizationError("base-vertex minor is singular")
    if abs(d) != 1:
        raise NormalizationError(f"base-vertex minor has det {d}, not +-1")
    # inverse = adj / det = det * adj, since det = +-1
    vectors = tuple(
        tuple(d * sum(a * x for a, x in zip(row, v)) for row in adj) for v in cm.vectors
    )
    return CharacteristicMap(n, vectors)


def candidate_vectors(rank: int, bound: int, limit: Optional[int] = None) -> List[Tuple[int, ...]]:
    """The first `limit` (None: all) primitive vectors with entries in
    [-bound, bound], lexicographic; none past the limit is built."""
    box = product(range(-bound, bound + 1), repeat=rank)
    return list(islice((v for v in box if any(v) and is_primitive(v)), limit))


def assignment_order(
    structure: CellTable, preassigned: Sequence[int]
) -> List[int]:
    """Greedy carrier order: repeatedly pick the unassigned carrier sharing
    the most cells with already-assigned carriers; ties by lowest index."""
    cells = structure.cells
    assigned = set(preassigned)
    remaining = [i for i in range(1, structure.num_carriers + 1) if i not in assigned]
    order = []
    while remaining:
        # max keeps the first of equal scores, and remaining is ascending
        best = max(remaining, key=lambda c: sum(
            1 for cell in cells if c in cell and cell & assigned))
        order.append(best)
        assigned.add(best)
        remaining.remove(best)
    return order


def plan_search(structure: CellTable, orientation: OrientationData,
                config: SearchConfig) -> SearchPlan:
    """Validate the search inputs and fix the plan the loop walks.

    The base vertex's vectors are pinned to the identity in the order of
    config.base_vertex, taken as positively ordered: a cell's sign is its
    det over its increasing carriers times its parity, negated throughout
    if the orientation gives the base the opposite parity (the same search
    up to an ambient reflection).  A cell accepts the dets of the goal's signs.
    """
    table = OrientedCells.of(structure, orientation)
    cells = structure.cells
    base = frozenset(config.base_vertex)
    if len(base) != len(config.base_vertex) or base not in cells:
        raise ValidationError(
            f"base vertex {config.base_vertex} is not a cell of the structure"
        )
    flip = permutation_parity(config.base_vertex, table.tuples[cells.index(base)])

    order = tuple(assignment_order(structure, config.base_vertex)
                  if config.order is None else config.order)
    free = set(range(1, structure.num_carriers + 1)) - base
    if sorted(order) != sorted(free):
        raise ValidationError("assignment order must cover the free carriers")

    assigned = set(base)
    completed = []
    for carrier in order:
        assigned.add(carrier)
        cells_here = [
            (t, tuple(flip * parity * d for d in GOALS[config.goal]))
            for t, parity, cell in zip(structure.ordered, table.parities, cells)
            if carrier in cell and cell <= assigned
        ]
        # fail first: a cell with fewer pinned base vectors holds more free
        # ones and rejects more often; the sort is stable, so ties keep
        # cell order, and acceptance is a conjunction, so no verdict moves
        cells_here.sort(key=lambda entry: len(base.intersection(entry[0])))
        completed.append(tuple(cells_here))
    return SearchPlan(order, tuple(completed))


def search(structure: CellTable, orientation: OrientationData,
           config: SearchConfig) -> SearchResult:
    """Exhaustive bounded search for characteristic maps (see plan_search)."""
    plan = plan_search(structure, orientation, config)
    n = len(config.base_vertex)
    # vectors[i] is carrier i's vector; a backtracked carrier keeps a stale
    # one, which no cell completed at a shallower depth reads
    vectors: List[Optional[Tuple[int, ...]]] = [None] * (structure.num_carriers + 1)
    for k, carrier in enumerate(config.base_vertex):
        vectors[carrier] = tuple(1 if i == k else 0 for i in range(n))
    # candidate k at any depth comes after k nodes, so none past k = budget is read
    candidates = candidate_vectors(n, config.bound, config.node_budget + 1)
    # Every cell completed at a depth holds its carrier once, so negating the
    # candidate negates each of their dets, and a goal whose signs are closed
    # under negation gives -c the verdict of c.  The whole box is symmetric
    # and lexicographic, so its second half is the first's negations in
    # reverse order: there the loop replays the first half's verdicts.  A
    # list cut by the budget, or a goal such as all_positive, eliminates every
    # candidate's cells.
    signs = GOALS[config.goal]
    if len(candidates) <= config.node_budget and all(-s in signs for s in signs):
        half = len(candidates) // 2
    else:
        half = len(candidates)
    first, second = candidates[:half], candidates[half:]
    solutions: List[CharacteristicMap] = []
    nodes = 0

    def dfs(depth: int) -> bool:
        """Returns False when the search must stop (cap or budget hit)."""
        nonlocal nodes
        if depth == len(plan.order):
            solutions.append(CharacteristicMap(n, tuple(vectors[1:])))
            return len(solutions) != config.solution_cap
        carrier, completed = plan.order[depth], plan.completed[depth]
        kept: List[Tuple[int, ...]] = []
        for cand in first:
            if nodes == config.node_budget:
                return False
            nodes += 1
            vectors[carrier] = cand
            # the vectors over increasing carriers, as rows: det M^T = det M;
            # the first rejected cell prunes the candidate.  They are int
            # tuples, n per cell, so they go to the kernel unchecked
            for t, accepted in completed:
                if bareiss_det([list(vectors[i]) for i in t]) not in accepted:
                    break
            else:
                kept.append(cand)
                if not dfs(depth + 1):
                    return False
        # twins come in reverse order, so the next kept one is kept[-1]
        for cand, twin in zip(second, reversed(first)):
            if nodes == config.node_budget:
                return False
            nodes += 1
            if kept and kept[-1] == twin:
                kept.pop()
                vectors[carrier] = cand
                if not dfs(depth + 1):
                    return False
        return True

    exhaustive = dfs(0)
    return SearchResult(tuple(solutions), nodes, exhaustive)
