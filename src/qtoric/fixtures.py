"""Built-in fixtures: the pentagon, D4(7), the Barnette sphere, and a few
standard combinatorial spheres used as cross-checks."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Optional, Sequence, Tuple

from .charmap import CharacteristicMap
from .complexes import OrientationData, SimplePolytope, SimplicialComplex
from .cyclic import AngleSpec, PolarPolytope, polar_of_angles
from .errors import ValidationError
from .values import Value


class Fixture(Value):
    _fields = ("name", "description", "complex", "polytope", "orientation", "charmap", "angles")

    def __init__(self, name: str, description: str, complex: Optional[SimplicialComplex] = None,
                 polytope: Optional[SimplePolytope] = None,
                 orientation: Optional[OrientationData] = None,
                 charmap: Optional[CharacteristicMap] = None,
                 angles: Optional[AngleSpec] = None):
        self.__dict__.update(name=name, description=description, complex=complex,
                             polytope=polytope, orientation=orientation, charmap=charmap,
                             angles=angles)


def _polygon(name: str, description: str, vectors: Sequence[Tuple[int, int]]) -> Fixture:
    """An m-gon with facets 1..m counterclockwise, v_i = F_i /\\ F_{i+1}, and
    facet i sent to vectors[i-1]."""
    m = len(vectors)
    vertices = tuple((i, i % m + 1) for i in range(1, m + 1))
    return Fixture(name, description, polytope=SimplePolytope.of(m, 2, vertices),
                   orientation=OrientationData(vertices), charmap=CharacteristicMap.of(2, vectors))


def _pentagon() -> Fixture:
    return _polygon("pentagon", "counterclockwise pentagon with a sign assignment whose vertex "
                    "signs are all +1", [(0, -1), (1, 1), (1, 2), (-2, -3), (-1, -2)])


def _triangle() -> Fixture:
    return _polygon("triangle", "triangle with the standard assignment e1, e2, -e1-e2",
                    [(1, 0), (0, 1), (-1, -1)])


def _square() -> Fixture:
    return _polygon("square", "square with the standard assignment e1, e2, -e1, -e2",
                    [(1, 0), (0, 1), (-1, 0), (0, -1)])


# the seven curve angles 0, pi/4, ..., 3pi/2 defining C4(7)
D47_ANGLES: Tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6)

# the published list of positively ordered facet tuples of D4(7), kept
# verbatim as the reference when reporting the computed global orientation;
# it has two parity misprints, at 1245 and 1567, which make it incoherent
# across 8 ridges (certified by acceptance criterion 4)
D47_REFERENCE_TUPLES: Tuple[Tuple[int, int, int, int], ...] = (
    (1, 2, 3, 4),
    (2, 1, 3, 7),
    (2, 1, 4, 5),
    (1, 2, 5, 6),
    (1, 2, 6, 7),
    (3, 1, 4, 7),
    (4, 1, 5, 7),
    (1, 5, 6, 7),
    (2, 3, 4, 5),
    (2, 3, 5, 6),
    (2, 3, 6, 7),
    (3, 4, 5, 6),
    (3, 4, 6, 7),
    (4, 5, 6, 7),
)


def _d47() -> Fixture:
    cm = CharacteristicMap.of(
        4,
        [
            (0, 1, 0, 0),
            (1, 0, 0, 0),
            (0, 0, 1, 0),
            (-1, 0, -1, -1),
            (1, -1, 0, -1),
            (1, -1, -1, 0),
            (0, 0, 0, 1),
        ],
    )
    return Fixture(
        "d47",
        "polar dual of the trigonometric cyclic polytope on seven "
        "eighth-turn angles, with a unimodular but not all-positive "
        "sign assignment",
        charmap=cm,
        angles=AngleSpec(D47_ANGLES),
    )


BARNETTE_FACETS: Tuple[Tuple[int, int, int, int], ...] = (
    (1, 2, 3, 4),
    (3, 4, 5, 6),
    (1, 2, 5, 6),
    (1, 2, 4, 7),
    (1, 3, 4, 7),
    (3, 4, 6, 7),
    (3, 5, 6, 7),
    (1, 2, 5, 7),
    (2, 5, 6, 7),
    (2, 4, 6, 7),
    (1, 2, 3, 8),
    (2, 3, 4, 8),
    (3, 4, 5, 8),
    (4, 5, 6, 8),
    (1, 2, 6, 8),
    (1, 5, 6, 8),
    (1, 3, 5, 8),
    (2, 4, 6, 8),
    (1, 3, 5, 7),
)


def _barnette() -> Fixture:
    cx = SimplicialComplex.of(8, BARNETTE_FACETS)
    cm = CharacteristicMap.of(
        4,
        [
            (1, 0, 0, 0),
            (0, 1, -1, 2),
            (0, 1, 0, 0),
            (0, 0, 1, -1),
            (0, 0, 1, 0),
            (1, -1, 0, -1),
            (0, 0, 0, 1),
            (1, 0, 0, -1),
        ],
    )
    return Fixture(
        "barnette",
        "Barnette's non-polytopal 3-sphere on 8 vertices with a per-simplex "
        "unimodular vector assignment",
        complex=cx,
        charmap=cm,
    )


def _rp2_6() -> Fixture:
    facets = [
        (1, 2, 5),
        (1, 2, 6),
        (1, 3, 4),
        (1, 3, 6),
        (1, 4, 5),
        (2, 3, 4),
        (2, 3, 5),
        (2, 4, 6),
        (3, 5, 6),
        (4, 5, 6),
    ]
    return Fixture(
        "rp2_6",
        "6-vertex triangulation of the real projective plane "
        "(non-orientable control case)",
        complex=SimplicialComplex.of(6, facets),
    )


def _cross4() -> Fixture:
    # vertices i and i+4 are the antipodal pair +-e_i
    facets = [
        tuple(sorted(i if pick == 0 else i + 4 for i, pick in zip(range(1, 5), picks)))
        for picks in product((0, 1), repeat=4)
    ]
    return Fixture(
        "cross4",
        "boundary of the 4-dimensional cross-polytope",
        complex=SimplicialComplex.of(8, facets),
    )


def _simplex4() -> Fixture:
    facets = list(combinations(range(1, 6), 4))
    return Fixture(
        "simplex4",
        "boundary of the 4-simplex",
        complex=SimplicialComplex.of(5, facets),
    )


_BUILDERS = {
    "pentagon": _pentagon,
    "triangle": _triangle,
    "square": _square,
    "d47": _d47,
    "barnette": _barnette,
    "rp2_6": _rp2_6,
    "cross4": _cross4,
    "simplex4": _simplex4,
}

FIXTURE_NAMES = tuple(sorted(_BUILDERS))


@lru_cache(maxsize=None)
def get_fixture(name: str) -> Fixture:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValidationError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        )
    return builder()


def d47_polar() -> PolarPolytope:
    """The polar D4(7), built exactly from the seven-angle realization."""
    return polar_of_angles(D47_ANGLES)


def d47_orientation() -> OrientationData:
    """The positively ordered facet tuples at the vertices of D4(7)."""
    return d47_polar().orientation
