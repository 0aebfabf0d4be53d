"""Simplicial complexes, simple polytopes, f/h-vectors, and orientations.

Indices are 1-based everywhere (vertices 1..num_vertices, facets
1..num_facets) so that printed reports line up with the usual labels.

A complex computes its ridge map, pseudomanifold offenders, coherent
orientation and f-vector on first use and keeps them (immutable values), so
a complex that is used again, like a process-cached fixture, computes each
at most once.  A failure is not kept: asking again recomputes and raises
again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from .errors import NonOrientableError, ValidationError
from .exactnum import as_int, as_ints

FVector = Tuple[int, ...]


@dataclass(frozen=True)
class SimplicialComplex:
    """A pure simplicial complex given by its facet list."""

    num_vertices: int
    facets: Tuple[FrozenSet[int], ...]

    def __post_init__(self):
        # the one place labels become ints, so a bool is kept as 0 or 1
        object.__setattr__(self, "num_vertices", as_int(self.num_vertices, "num_vertices"))
        object.__setattr__(self, "facets", tuple(
            frozenset(as_ints(f, "facet vertex labels")) for f in self.facets
        ))
        if self.num_vertices < 1:
            raise ValidationError("complex needs at least one vertex")
        if not self.facets:
            raise ValidationError("facet list is empty")
        size = len(next(iter(self.facets)))
        seen = set()
        for f in self.facets:
            if len(f) != size:
                raise ValidationError(
                    f"non-pure complex: facet {sorted(f)} has size {len(f)}, "
                    f"expected {size}"
                )
            if f in seen:
                raise ValidationError(f"duplicate facet {sorted(f)}")
            seen.add(f)
            for v in f:
                if not 1 <= v <= self.num_vertices:
                    raise ValidationError(f"vertex {v} out of range")

    @classmethod
    def of(cls, num_vertices: int, facets: Iterable[Iterable[int]]):
        return cls(num_vertices, tuple(facets))

    @property
    def dimension(self) -> int:
        return len(self.facets[0]) - 1

    @cached_property
    def ridges(self) -> Mapping[FrozenSet[int], Tuple[int, ...]]:
        """Each ridge and the (0-based) indices of the facets containing it."""
        return _ridge_map(self.facets)

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
        d = self.dimension
        faces = [set() for _ in range(d + 1)]
        for f in self.facets:
            verts = sorted(f)
            for size in range(1, d + 2):
                for sub in combinations(verts, size):
                    faces[size - 1].add(sub)
        return tuple(len(s) for s in faces)

    @cached_property
    def coherent_orientation(self) -> OrientationData:
        """Propagate a coherent orientation across shared ridges by BFS.

        Facet 0 is seeded with its sorted vertex tuple; each facet receives
        its sorted tuple either as-is or with the first two entries swapped.
        Raises NonOrientableError with a conflicting facet pair as
        certificate.
        """
        if self.offending_ridges:
            raise ValidationError(
                f"not a pseudomanifold: ridges {list(self.offending_ridges)}"
            )
        ridges = self.ridges
        sorted_facets = [tuple(sorted(f)) for f in self.facets]
        sign: Dict[int, int] = {0: 1}
        queue = [0]
        while queue:
            cur = queue.pop(0)
            fcur = sorted_facets[cur]
            for pos, v in enumerate(fcur):
                ridge = self.facets[cur] - {v}
                owners = ridges[ridge]
                other = owners[0] if owners[1] == cur else owners[1]
                fother = sorted_facets[other]
                opos = fother.index(tuple(sorted(self.facets[other] - ridge))[0])
                # coherence: induced ridge orientations must be opposite
                needed = -sign[cur] * (-1) ** pos * (-1) ** opos
                if other in sign:
                    if sign[other] != needed:
                        raise NonOrientableError(cur + 1, other + 1, ridge)
                else:
                    sign[other] = needed
                    queue.append(other)
        if len(sign) != len(self.facets):
            raise ValidationError("complex is not connected")
        tuples = []
        for idx, f in enumerate(sorted_facets):
            if sign[idx] > 0:
                tuples.append(f)
            else:
                tuples.append((f[1], f[0]) + f[2:])
        return OrientationData(tuple(tuples))


@dataclass(frozen=True)
class SimplePolytope:
    """Combinatorics of a simple polytope: vertices as facet-index sets."""

    num_facets: int
    dimension: int
    vertices: Tuple[FrozenSet[int], ...]

    def __post_init__(self):
        # the one place labels become ints, so a bool is kept as 0 or 1
        object.__setattr__(self, "num_facets", as_int(self.num_facets, "num_facets"))
        object.__setattr__(self, "dimension", as_int(self.dimension, "dimension"))
        object.__setattr__(self, "vertices", tuple(
            frozenset(as_ints(v, "vertex facet labels")) for v in self.vertices
        ))
        seen = set()
        used = set()
        for v in self.vertices:
            if len(v) != self.dimension:
                raise ValidationError(
                    f"vertex {sorted(v)} lies in {len(v)} facets, "
                    f"expected {self.dimension} (simplicity)"
                )
            if v in seen:
                raise ValidationError(f"duplicate vertex {sorted(v)}")
            seen.add(v)
            for f in v:
                if not 1 <= f <= self.num_facets:
                    raise ValidationError(f"facet index {f} out of range")
                used.add(f)
        if used != set(range(1, self.num_facets + 1)):
            missing = sorted(set(range(1, self.num_facets + 1)) - used)
            raise ValidationError(f"facets {missing} appear in no vertex")

    @classmethod
    def of(cls, num_facets: int, dimension: int, vertices: Iterable[Iterable[int]]):
        return cls(num_facets, dimension, tuple(vertices))


@dataclass(frozen=True)
class OrientationData:
    """Ordered incidence tuples: per-vertex facet tuples for a simple
    polytope, or per-facet vertex tuples for a simplicial sphere."""

    tuples: Tuple[Tuple[int, ...], ...]
    reversed_seed: bool = False

    def __post_init__(self):
        # the one place labels become ints, so a bool is kept as 0 or 1
        object.__setattr__(self, "tuples", tuple(
            as_ints(t, "orientation labels") for t in self.tuples
        ))
        if not isinstance(self.reversed_seed, bool):
            raise ValidationError(
                f"reversed_seed must be a bool, got {self.reversed_seed!r}"
            )

    def reversed(self) -> "OrientationData":
        """The globally reversed orientation (first two entries swapped)."""
        flipped = tuple((t[1], t[0]) + t[2:] for t in self.tuples)
        return OrientationData(flipped, not self.reversed_seed)


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
    facets: Sequence[FrozenSet[int]],
) -> Mapping[FrozenSet[int], Tuple[int, ...]]:
    out: Dict[FrozenSet[int], List[int]] = {}
    for idx, f in enumerate(facets):
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
