"""Characteristic maps, vertex signs, and the omniorientation flip solver.

The same engine serves simple polytopes (vectors on facets, signs at
vertices) and simplicial spheres (vectors on sphere vertices, signs at
maximal simplices): in both cases there is a list of "cells", each a set of
vector carriers, together with a positively ordered tuple per cell.
Each cell's vectors are eliminated once, over its carriers in increasing
order; a sign is that det times the parity of the cell's tuple.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, List, Sequence, Tuple

from .complexes import CellTable, OrientationData, OrientedCells
from .errors import CoverageError, UnimodularityError, ValidationError
from .exactnum import Gf2System, as_int, as_ints, bareiss_det, is_primitive
from .values import Value

SignPattern = Tuple[int, ...]
FlipVector = Tuple[int, ...]


class CharacteristicMap(Value):
    """Primitive integer n-vectors indexed by facet (or sphere-vertex) label.

    vectors[i-1] is the vector attached to label i.
    """

    _fields = ("rank", "vectors")

    def __init__(self, rank: int, vectors: Tuple[Tuple[int, ...], ...]):
        # the one place entries become ints, so a bool is kept as 0 or 1
        rank = as_int(rank, "rank")
        vectors = tuple(as_ints(v, "vector entries") for v in vectors)
        for i, v in enumerate(vectors, start=1):
            if len(v) != rank:
                raise ValidationError(
                    f"vector {i} has dimension {len(v)}, expected {rank}"
                )
            if not is_primitive(v):
                raise ValidationError(f"vector {i} = {v} is not primitive")
        self.__dict__.update(rank=rank, vectors=vectors)

    @classmethod
    def of(cls, rank: int, vectors: Iterable[Sequence[int]]):
        return cls(rank, tuple(vectors))

    def vector(self, label: int) -> Tuple[int, ...]:
        m = len(self.vectors)
        if not 1 <= label <= m:
            raise ValidationError(f"label {label} is outside 1..{m}")
        return self.vectors[label - 1]

    @property
    def num_carriers(self) -> int:
        return len(self.vectors)


def _check_coverage(structure: CellTable, cm: CharacteristicMap) -> None:
    m = structure.num_carriers
    if cm.num_carriers != m:
        raise CoverageError(
            f"map assigns {cm.num_carriers} vectors but the structure has {m} carriers"
        )
    # every cell has one size: complexes are pure and polytopes simple
    cells = structure.cells
    if cells and len(cells[0]) != cm.rank:
        raise CoverageError(
            f"map has rank {cm.rank} but cell {structure.labels[0]} "
            f"has {len(cells[0])} carriers"
        )


def _cell_dets(structure: CellTable, cm: CharacteristicMap) -> Tuple[int, ...]:
    """det of each cell's vectors in increasing carrier order, as rows or as
    columns; the rank-0 map's one empty cell has det 1."""
    # the coverage check fixes n-sized cells with labels in 1..m
    _check_coverage(structure, cm)
    return tuple(bareiss_det([list(cm.vectors[i - 1]) for i in t]) if t else 1
                 for t in structure.ordered)


def unimodularity_check(
    structure: CellTable, cm: CharacteristicMap
) -> Tuple[bool, List[Tuple[str, int]]]:
    """|det| = 1 at every cell; returns (pass, offenders with their det)."""
    dets = _cell_dets(structure, cm)
    offenders = [(label, d) for label, d in zip(structure.labels, dets) if abs(d) != 1]
    return (not offenders, offenders)


def sign_pattern(
    structure: CellTable, cm: CharacteristicMap, orientation: OrientationData
) -> SignPattern:
    """Per-cell signs: the dets in tuple order, each +-1, in cell order."""
    dets = _cell_dets(structure, cm)
    table = OrientedCells.of(structure, orientation)
    signs = tuple(map(mul, table.parities, dets))
    for t, s in zip(table.tuples, signs):
        if abs(s) != 1:
            raise UnimodularityError(f"cell {t} has det {s}, not a unimodular minor")
    return signs


def almost_complex_check(
    structure: CellTable, cm: CharacteristicMap, orientation: OrientationData
) -> Tuple[bool, List[str]]:
    """True iff every sign is +1; offenders are reported by label."""
    signs = sign_pattern(structure, cm, orientation)
    offenders = [label for label, s in zip(structure.labels, signs) if s == -1]
    return (not offenders, offenders)


def flip_system(
    structure: CellTable, cm: CharacteristicMap, orientation: OrientationData
) -> Gf2System:
    """GF(2) system whose solutions are the sign flips making all signs +1.

    Negating vector i negates every det it enters, so a flip x turns
    sigma(v) into sigma(v) * prod_{i in v} x_i; over GF(2) that is one
    equation per cell with right-hand side 1 exactly when sigma(v) = -1.
    """
    signs = sign_pattern(structure, cm, orientation)
    rows = tuple((mask, 1 if s == -1 else 0) for mask, s in zip(structure.masks, signs))
    return Gf2System(structure.num_carriers, rows)


def apply_flip(cm: CharacteristicMap, flip: Sequence[int]) -> CharacteristicMap:
    """Replace vector i by flip[i-1] * vector i, flip entries in {-1, +1}."""
    if len(flip) != cm.num_carriers:
        raise ValidationError("flip vector length does not match the map")
    if any(x not in (-1, 1) for x in flip):
        raise ValidationError("flip entries must be -1 or +1")
    return CharacteristicMap(
        cm.rank,
        tuple(
            tuple(x * f for x in v) for v, f in zip(cm.vectors, flip)
        ),
    )


def flip_from_bits(bits: Sequence[int]) -> FlipVector:
    """Convert a GF(2) solution (1 = flip) into a {-1,+1} flip vector."""
    return tuple(-1 if b else 1 for b in bits)
