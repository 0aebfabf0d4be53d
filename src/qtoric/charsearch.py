"""Bounded backtracking search for characteristic maps.

The GL(n,Z) basis freedom is quotiented by pinning the base vertex's
positively ordered vectors to the identity; the remaining carriers are
assigned depth-first with determinant pruning at every completed cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .charmap import (
    CharacteristicMap,
    Structure,
    _check_orientation,
    cells_of,
    num_carriers_of,
)
from .complexes import OrientationData
from .cyclic import permutation_parity
from .errors import NormalizationError, ValidationError
from .exactnum import adjugate, det_int, is_primitive

GOAL_UNIMODULAR = "unimodular"
GOAL_ALL_POSITIVE = "all_positive"


@dataclass(frozen=True)
class SearchConfig:
    """Bounded-entry search specification.

    base_vertex is an ordered carrier tuple naming one cell; its vectors are
    pinned to e_1..e_n in that order.  goal is "unimodular" (|det| = 1 at
    every cell) or "all_positive" (det = +1 in positively ordered columns).
    """

    bound: int
    base_vertex: Tuple[int, ...]
    goal: str = GOAL_UNIMODULAR
    order: Optional[Tuple[int, ...]] = None
    solution_cap: Optional[int] = None
    node_budget: int = 10**9

    def __post_init__(self):
        if self.bound < 1:
            raise ValidationError("entry bound must be >= 1")
        if self.goal not in (GOAL_UNIMODULAR, GOAL_ALL_POSITIVE):
            raise ValidationError(f"unknown goal {self.goal!r}")
        if self.solution_cap is not None and self.solution_cap < 1:
            raise ValidationError(f"solution cap must be >= 1, not {self.solution_cap}")
        if self.node_budget < 0:
            raise ValidationError(f"node budget must be >= 0, not {self.node_budget}")


@dataclass
class SearchResult:
    solutions: List[CharacteristicMap] = field(default_factory=list)
    nodes: int = 0
    exhaustive: bool = True


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
    new_vectors = []
    for v in cm.vectors:
        new_vectors.append(
            tuple(d * sum(adj[i][k] * v[k] for k in range(n)) for i in range(n))
        )
    return CharacteristicMap(n, tuple(new_vectors))


def candidate_vectors(rank: int, bound: int) -> List[Tuple[int, ...]]:
    """All primitive vectors with entries in [-bound, bound], lexicographic."""
    out = []
    for v in product(range(-bound, bound + 1), repeat=rank):
        if any(v) and is_primitive(v):
            out.append(v)
    return out


def assignment_order(
    structure: Structure, preassigned: Sequence[int]
) -> List[int]:
    """Greedy carrier order: repeatedly pick the unassigned carrier sharing
    the most cells with already-assigned carriers; ties by lowest index."""
    cells = cells_of(structure)
    assigned = set(preassigned)
    remaining = [
        i for i in range(1, num_carriers_of(structure) + 1) if i not in assigned
    ]
    order = []
    while remaining:
        best = None
        best_score = -1
        for c in remaining:
            score = sum(1 for cell in cells if c in cell and cell & assigned)
            if score > best_score:
                best, best_score = c, score
        order.append(best)
        assigned.add(best)
        remaining.remove(best)
    return order


def search(
    structure: Structure,
    orientation: OrientationData,
    config: SearchConfig,
) -> SearchResult:
    """Exhaustive bounded search for characteristic maps.

    The base vertex's vectors are fixed to the identity in the order given
    by config.base_vertex; that tuple is taken as positively ordered, so if
    the supplied orientation gives it the opposite parity the whole
    orientation is reversed first (the two conventions describe the same
    search up to an ambient reflection).
    """
    _check_orientation(structure, orientation)
    cells = cells_of(structure)
    n = len(config.base_vertex)
    base_set = frozenset(config.base_vertex)
    try:
        base_cell_pos = list(cells).index(base_set)
    except ValueError:
        raise ValidationError(
            f"base vertex {config.base_vertex} is not a cell of the structure"
        )
    tuples = orientation.tuples
    if permutation_parity(config.base_vertex, tuples[base_cell_pos]) < 0:
        tuples = orientation.reversed().tuples

    m = num_carriers_of(structure)
    assignment: Dict[int, Tuple[int, ...]] = {}
    for k, carrier in enumerate(config.base_vertex):
        assignment[carrier] = tuple(1 if i == k else 0 for i in range(n))

    order = (
        list(config.order)
        if config.order is not None
        else assignment_order(structure, config.base_vertex)
    )
    if sorted(order) != sorted(set(range(1, m + 1)) - set(config.base_vertex)):
        raise ValidationError("assignment order must cover the free carriers")

    # cells completed at each depth: all carriers assigned once order[:depth+1]
    assigned_so_far = set(config.base_vertex)
    completed_at: List[List[int]] = []
    for c in order:
        assigned_so_far.add(c)
        completed_at.append(
            [
                ci
                for ci, cell in enumerate(cells)
                if c in cell and cell <= assigned_so_far
            ]
        )

    candidates = candidate_vectors(n, config.bound)
    result = SearchResult()

    def cell_ok(ci: int) -> bool:
        # the columns in positive order, passed as rows: det M^T = det M
        d = det_int([assignment[i] for i in tuples[ci]])
        if config.goal == GOAL_ALL_POSITIVE:
            return d == 1
        return abs(d) == 1

    def dfs(depth: int) -> bool:
        """Returns False when the search must stop (cap or budget hit)."""
        if depth == len(order):
            vectors = tuple(assignment[i] for i in range(1, m + 1))
            result.solutions.append(CharacteristicMap(n, vectors))
            if (
                config.solution_cap is not None
                and len(result.solutions) >= config.solution_cap
            ):
                result.exhaustive = False
                return False
            return True
        carrier = order[depth]
        for cand in candidates:
            if result.nodes == config.node_budget:
                result.exhaustive = False
                return False
            result.nodes += 1
            assignment[carrier] = cand
            if all(cell_ok(ci) for ci in completed_at[depth]):
                if not dfs(depth + 1):
                    del assignment[carrier]
                    return False
            del assignment[carrier]
        return True

    dfs(0)
    return result
