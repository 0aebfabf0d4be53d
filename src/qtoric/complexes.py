"""Simplicial complexes, simple polytopes, f/h-vectors, and orientations.

Indices are 1-based everywhere (vertices 1..num_vertices, facets
1..num_facets) so that printed reports line up with the usual labels.

Both structures are a `CellTable`: the cells that carry a sign (a
polytope's vertices as facet sets, a complex's facets as vertex sets) over
the carriers 1..num_carriers, checked by one validation pass.  A structure
computes its per-cell facts and ridge map, and a complex its pseudomanifold
offenders, coherent orientation and f-vector, on first use and keeps them
(immutable values), so a structure that is used again, like a
process-cached fixture, computes each at most once.  A failure is not kept:
asking again recomputes and raises again.  An orientation keeps, the same
way, its checked `OrientedCells` table (tuples and parities).
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, count, filterfalse, islice
from math import comb
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import IncoherentOrientationError, NonOrientableError, ValidationError
from .exactnum import as_int, as_ints
from .values import Value

FVector = Tuple[int, ...]
Cells = Tuple[FrozenSet[int], ...]


class CellTable:
    """What the sign, flip, fan and search engines read of a structure:
    `cells`, `num_carriers`, the facts per cell and the ridge map."""

    cells: Cells
    num_carriers: int

    @cached_property
    def ordered(self) -> Tuple[Tuple[int, ...], ...]:
        """Each cell's carriers in increasing order."""
        return tuple(tuple(sorted(cell)) for cell in self.cells)

    @cached_property
    def labels(self) -> Tuple[str, ...]:
        """Each cell's label: its ordered carriers run together."""
        return tuple("".join(map(str, t)) for t in self.ordered)

    @cached_property
    def masks(self) -> Tuple[int, ...]:
        """Each cell's carrier bitmask, carrier i at bit i - 1."""
        return tuple(sum(1 << (i - 1) for i in cell) for cell in self.cells)

    @cached_property
    def ridges(self) -> Mapping[FrozenSet[int], Tuple[int, ...]]:
        """Each ridge and the (0-based) indices of the cells containing it."""
        return _ridge_map(self.cells)


_NAMED = 5  # unused carriers an error message names


def _checked_cells(raw: Iterable[Iterable[int]], num_carriers: int, size: Optional[int],
                   cell: str, carrier: str, carriers: str) -> Cells:
    """The one validation pass of both structures: each cell is `size`
    distinct int labels (size None: as many as the first cell), no cell
    repeats, and the cells use each carrier in 1..num_carriers and no other."""
    cells: Dict[FrozenSet[int], None] = {}  # ordered, and a set for the duplicate test
    for labels in raw:
        labels = as_ints(labels, f"{cell} {carrier} labels")
        c = frozenset(labels)
        if len(c) != len(labels):
            raise ValidationError(f"{cell} {list(labels)} repeats a label")
        size = len(c) if size is None else size
        if len(c) != size:
            raise ValidationError(f"{cell} {sorted(c)} has {len(c)} {carriers}, expected {size}")
        if c in cells:
            raise ValidationError(f"duplicate {cell} {sorted(c)}")
        cells[c] = None
    used = set().union(*cells)
    if used and not 0 < min(used) <= max(used) <= num_carriers:
        stray = min(c for c in used if not 0 < c <= num_carriers)
        raise ValidationError(f"{carrier} {stray} out of range")
    # a document's num_carriers may be huge: walk up from 1 only as far as
    # the first few unused labels, and count the rest
    unused = num_carriers - len(used)
    if unused:
        named = list(islice(filterfalse(used.__contains__, count(1)), min(unused, _NAMED)))
        more = f" and {unused - len(named)} more" if unused > len(named) else ""
        raise ValidationError(f"{carriers} {named}{more} appear in no {cell}")
    return tuple(cells)


class SimplicialComplex(CellTable, Value):
    """A pure simplicial complex given by its facet list."""

    _fields = ("num_vertices", "facets")

    def __init__(self, num_vertices: int, facets: Cells):
        # the one place labels become ints, so a bool is kept as 0 or 1
        num_vertices = as_int(num_vertices, "num_vertices")
        if num_vertices < 1:
            raise ValidationError("complex needs at least one vertex")
        facets = _checked_cells(facets, num_vertices, None, "facet", "vertex", "vertices")
        self.__dict__.update(num_vertices=num_vertices, facets=facets)

    @classmethod
    def of(cls, num_vertices: int, facets: Iterable[Iterable[int]]):
        return cls(num_vertices, tuple(facets))

    cells = property(lambda self: self.facets)
    num_carriers = property(lambda self: self.num_vertices)

    @property
    def dimension(self) -> int:
        return len(self.facets[0]) - 1

    @cached_property
    def offending_ridges(self) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
        """The sorted ridges not in exactly two facets, with their counts."""
        return tuple(sorted(
            (tuple(sorted(ridge)), len(owners))
            for ridge, owners in self.ridges.items() if len(owners) != 2
        ))

    @cached_property
    def f_vector(self) -> FVector:
        """Face counts per dimension, by enumerating subsets of the facets."""
        return tuple(
            len({sub for f in self.facets for sub in combinations(sorted(f), size)})
            for size in range(1, self.dimension + 2)
        )

    @cached_property
    def coherent_orientation(self) -> OrientationData:
        """Propagate a coherent orientation across shared ridges by BFS.

        Facet 0 is seeded with its sorted vertex tuple; each facet receives
        its sorted tuple as-is or `swapped`.  Raises
        NonOrientableError with a conflicting facet pair as certificate.
        """
        if self.offending_ridges:
            raise ValidationError(
                f"not a pseudomanifold: ridges {list(self.offending_ridges)}"
            )
        ridges, ordered = self.ridges, self.ordered
        sign: Dict[int, int] = {0: 1}
        queue = [0]
        while queue:
            cur = queue.pop(0)
            for v in ordered[cur]:
                ridge = self.facets[cur] - {v}
                owners = ridges[ridge]
                other = owners[0] if owners[1] == cur else owners[1]
                # coherence: the two sides induce opposite ridge orientations
                needed = -(_induced(self.facets[cur], sign[cur], ridge)
                           * _induced(self.facets[other], 1, ridge))
                if other in sign:
                    if sign[other] != needed:
                        raise NonOrientableError(cur + 1, other + 1, ridge)
                else:
                    sign[other] = needed
                    queue.append(other)
        if len(sign) != len(self.facets):
            raise ValidationError("complex is not connected")
        return OrientationData(tuple(
            f if sign[idx] > 0 else swapped(f) for idx, f in enumerate(ordered)
        ))


class SimplePolytope(CellTable, Value):
    """Combinatorics of a simple polytope: vertices as facet-index sets."""

    _fields = ("num_facets", "dimension", "vertices")

    def __init__(self, num_facets: int, dimension: int, vertices: Cells):
        # the one place labels become ints, so a bool is kept as 0 or 1
        num_facets = as_int(num_facets, "num_facets")
        dimension = as_int(dimension, "dimension")
        vertices = _checked_cells(vertices, num_facets, dimension, "vertex", "facet", "facets")
        self.__dict__.update(num_facets=num_facets, dimension=dimension, vertices=vertices)

    @classmethod
    def of(cls, num_facets: int, dimension: int, vertices: Iterable[Iterable[int]]):
        return cls(num_facets, dimension, tuple(vertices))

    cells = property(lambda self: self.vertices)
    num_carriers = property(lambda self: self.num_facets)


class OrientationData(Value):
    """Ordered incidence tuples: per-vertex facet tuples for a simple
    polytope, or per-facet vertex tuples for a simplicial sphere."""

    _fields = ("tuples", "reversed_seed")

    def __init__(self, tuples: Tuple[Tuple[int, ...], ...], reversed_seed: bool = False):
        # the one place labels become ints, so a bool is kept as 0 or 1
        tuples = tuple(as_ints(t, "orientation labels") for t in tuples)
        if not isinstance(reversed_seed, bool):
            raise ValidationError(f"reversed_seed must be a bool, got {reversed_seed!r}")
        self.__dict__.update(tuples=tuples, reversed_seed=reversed_seed)

    def reversed(self) -> "OrientationData":
        """The globally reversed orientation: each tuple `swapped`."""
        return OrientationData(tuple(map(swapped, self.tuples)), not self.reversed_seed)


class OrientedCells(Value):
    """Per cell of a structure: its tuple of a checked orientation and the
    tuple's parity against the cell's carriers in increasing order (-1 for
    an odd permutation).  The check: each tuple orders its cell, in cell
    order, and on each ridge the two cells induce opposite orientations."""

    _fields = ("structure", "tuples", "parities")
    # equal only to itself: the table is kept for one structure object
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, structure: CellTable, tuples: Tuple[Tuple[int, ...], ...],
                 parities: Tuple[int, ...]):
        self.__dict__.update(structure=structure, tuples=tuples, parities=parities)

    @classmethod
    def of(cls, structure: CellTable, orientation: OrientationData) -> "OrientedCells":
        """The table, kept on the orientation for the last structure it was
        built for; a failed check raises and keeps nothing."""
        kept = orientation.__dict__.get("_cells")
        if kept is not None and kept.structure is structure:
            return kept
        cells, tuples = structure.cells, orientation.tuples
        if len(tuples) != len(cells):
            raise ValidationError("orientation data does not match the cell list")
        for t, cell in zip(tuples, cells):
            if len(t) != len(cell) or frozenset(t) != cell:
                raise ValidationError(
                    f"orientation tuple {t} is not a permutation of cell {sorted(cell)}"
                )
        parities = tuple(map(_parity, tuples))
        # a one-label cell has one order only, so the empty ridge is skipped
        for ridge, owners in structure.ridges.items():
            for a, b in combinations(owners, 2):
                if ridge and (_induced(cells[a], parities[a], ridge)
                              == _induced(cells[b], parities[b], ridge)):
                    raise IncoherentOrientationError(tuples[a], tuples[b], ridge)
        # written into the frozen orientation's __dict__, as
        # functools.cached_property writes a computed attribute
        kept = orientation.__dict__["_cells"] = cls(structure, tuples, parities)
        return kept


def swapped(t: Tuple[int, ...]) -> Tuple[int, ...]:
    """The other order of a cell: its first two entries swapped.  A
    one-label tuple has one order, and is its own."""
    return (t[1], t[0]) + t[2:] if len(t) > 1 else t


def cell_label(cell: Iterable[int]) -> str:
    return "".join(str(i) for i in sorted(cell))


def _parity(t: Sequence[int]) -> int:
    """The sign of the permutation that sorts t: -1 for an odd number of
    inversions."""
    return -1 if sum(a > b for a, b in combinations(t, 2)) % 2 else 1


def permutation_parity(src: Sequence[int], dst: Sequence[int]) -> int:
    """+1 if dst is an even permutation of src, -1 if odd."""
    if sorted(src) != sorted(dst):
        raise ValidationError(f"{dst} is not a permutation of {src}")
    return _parity(src) * _parity(dst)


def _induced(cell: FrozenSet[int], parity: int, ridge: FrozenSet[int]) -> int:
    """The orientation that a cell, ordered as a tuple t of this parity
    against its sorted tuple, induces on one of its ridges against the
    ridge's sorted tuple: sgn(t -> sorted t) * (-1)**(rank of v in the
    cell), v the carrier opposite the ridge.  The two cells on a ridge of a
    coherent orientation induce opposite orientations."""
    (v,) = cell - ridge
    return -parity if sum(x < v for x in cell) % 2 else parity


def f_vector(k: SimplicialComplex) -> FVector:
    """Face counts per dimension, computed once per complex."""
    return k.f_vector


def h_vector(f: Sequence[int], d: int) -> Tuple[int, ...]:
    """Binomial transform of the f-vector (f_{-1} = 1 implicit)."""
    if len(f) != d:
        raise ValidationError(f"f-vector of length {len(f)} does not match d={d}")
    full = (1,) + tuple(f)  # full[i] = f_{i-1}
    return tuple(
        sum((-1) ** (k - i) * comb(d - i, k - i) * full[i] for i in range(k + 1))
        for k in range(d + 1)
    )


def euler_characteristic(f: Sequence[int]) -> int:
    return sum((-1) ** i * fi for i, fi in enumerate(f))


def _ridge_map(
    cells: Sequence[FrozenSet[int]],
) -> Mapping[FrozenSet[int], Tuple[int, ...]]:
    out: Dict[FrozenSet[int], List[int]] = {}
    for idx, f in enumerate(cells):
        for v in f:
            out.setdefault(f - {v}, []).append(idx)
    return MappingProxyType({ridge: tuple(owners) for ridge, owners in out.items()})


def pseudomanifold_check(
    k: SimplicialComplex,
) -> Tuple[bool, List[Tuple[Tuple[int, ...], int]]]:
    """Every ridge must lie in exactly two facets; returns offenders."""
    return (not k.offending_ridges, list(k.offending_ridges))


def coherent_orientation(k: SimplicialComplex) -> OrientationData:
    """The complex's coherent orientation, computed once per complex (see
    `SimplicialComplex.coherent_orientation`)."""
    return k.coherent_orientation


def dualize(k: SimplicialComplex) -> SimplePolytope:
    """Dual simple polytope: facets of k become vertices and vice versa."""
    n = k.dimension + 1
    return SimplePolytope(k.num_vertices, n, k.facets)
