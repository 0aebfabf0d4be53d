"""The oriented cell table and the structure's cell facts against the
per-call path they replaced.

That path stays here as the oracle: `cell_label` on each tuple plus a sort
for the report labels, `Gf2System.of` on frozenset supports plus
`gf2_solve` for the flip system, an inversion count for each tuple's
parity, and `ridge_conflicts`, which compares every pair of tuples, for
coherence.  The determinants and signs are checked against
`ray_oracle.det`, a cofactor expansion that shares no code with the
Bareiss kernel.  Each check runs on every oriented fixture and on seeded
relabelings of it: carriers renamed, cells reordered, and each cell's
labels listed in another order.
"""

import random

import pytest

from qtoric.charmap import (
    CharacteristicMap, _cell_dets, almost_complex_check, apply_flip, flip_system, sign_pattern,
)
from qtoric.charsearch import candidate_vectors
from qtoric.complexes import (
    OrientationData, OrientedCells, SimplePolytope, SimplicialComplex, cell_label,
    coherent_orientation,
)
from qtoric.errors import IncoherentOrientationError, UnimodularityError, ValidationError
from qtoric.exactnum import Gf2System, gf2_solve
from qtoric.fixtures import d47_orientation, d47_polar, get_fixture

from ray_oracle import det
from test_acceptance import ridge_conflicts
from test_cli import EXTRA_MAPS, ORIENTED


def fixture_case(name):
    """The structure, its orientation and a unimodular map."""
    fx = get_fixture(name)
    cm = CharacteristicMap.of(4, EXTRA_MAPS[name]) if name in EXTRA_MAPS else fx.charmap
    if name == "d47":
        return d47_polar().polytope, d47_orientation(), cm
    if fx.orientation is not None:
        return fx.polytope, fx.orientation, cm
    return fx.complex, coherent_orientation(fx.complex), cm


def relabeled(structure, orientation, cm, rng):
    """The same oriented structure and map with carrier i renamed image[i],
    the cells in another order and each cell's labels shuffled; returns
    them and the new cell order (old indices)."""
    m = structure.num_carriers
    image = dict(zip(range(1, m + 1), rng.sample(range(1, m + 1), m)))
    order = rng.sample(range(len(structure.cells)), len(structure.cells))
    cells = []
    for k in order:
        labels = [image[i] for i in structure.cells[k]]
        rng.shuffle(labels)
        cells.append(labels)
    if isinstance(structure, SimplePolytope):
        new = SimplePolytope.of(m, structure.dimension, cells)
    else:
        new = SimplicialComplex.of(m, cells)
    tuples = tuple(tuple(image[i] for i in orientation.tuples[k]) for k in order)
    vectors = [None] * m
    for i, v in enumerate(cm.vectors, start=1):
        vectors[image[i] - 1] = v
    return new, OrientationData(tuples), CharacteristicMap.of(cm.rank, vectors), order


def cases():
    """Every oriented fixture, and three seeded relabelings of each, with a
    random sign flip of the map so that some signs are -1."""
    out = []
    for name in ORIENTED:
        structure, orientation, cm = fixture_case(name)
        out.append((name, structure, orientation, cm))
        for seed in range(3):
            rng = random.Random(f"{name}:{seed}")
            new, new_orientation, new_cm, _ = relabeled(structure, orientation, cm, rng)
            flip = [rng.choice((-1, 1)) for _ in new_cm.vectors]
            out.append((f"{name}:{seed}", new, new_orientation, apply_flip(new_cm, flip)))
    return out


CASES = cases()
IDS = [case[0] for case in CASES]


def inversion_parity(t):
    """(-1) ** the number of pairs out of increasing order."""
    return (-1) ** sum(t[i] > t[j] for i in range(len(t)) for j in range(i + 1, len(t)))


def oracle_signs(cm, orientation):
    return tuple(det([cm.vector(i) for i in t]) for t in orientation.tuples)


@pytest.mark.parametrize("name, structure, orientation, cm", CASES, ids=IDS)
class TestTableAgainstPerCallPath:
    def test_tuples_labels_and_masks(self, name, structure, orientation, cm):
        table = OrientedCells.of(structure, orientation)
        assert table.tuples == orientation.tuples
        assert structure.labels == tuple(cell_label(t) for t in orientation.tuples)
        m = structure.num_carriers
        for mask, cell in zip(structure.masks, structure.cells):
            assert {i for i in range(1, m + 1) if mask >> (i - 1) & 1} == cell
            assert mask >> m == 0

    def test_parities(self, name, structure, orientation, cm):
        parities = OrientedCells.of(structure, orientation).parities
        assert parities == tuple(map(inversion_parity, orientation.tuples))

    def test_signs_and_their_report_order(self, name, structure, orientation, cm):
        signs = sign_pattern(structure, cm, orientation)
        assert signs == oracle_signs(cm, orientation)
        assert sorted(zip(structure.labels, signs)) == sorted(
            (cell_label(t), s) for t, s in zip(orientation.tuples, signs)
        )
        ok, offenders = almost_complex_check(structure, cm, orientation)
        want = [cell_label(t) for t, s in zip(orientation.tuples, signs) if s == -1]
        assert (ok, offenders) == (not want, want)

    def test_flip_system_and_its_solution(self, name, structure, orientation, cm):
        signs = oracle_signs(cm, orientation)
        oracle = Gf2System.of(structure.num_carriers, [
            (frozenset(t), 1 if s == -1 else 0) for t, s in zip(orientation.tuples, signs)
        ])
        system = flip_system(structure, cm, orientation)
        assert system == oracle and system.equations == oracle.equations
        result = gf2_solve(system)
        assert result == gf2_solve(oracle)
        if not result.feasible:
            labels = structure.labels
            assert [labels[i - 1] for i in result.certificate] == [
                cell_label(orientation.tuples[i - 1]) for i in result.certificate
            ]

    def test_coherence_and_each_swapped_tuple(self, name, structure, orientation, cm):
        assert ridge_conflicts(orientation.tuples) == set()
        for i, t in enumerate(orientation.tuples):
            tuples = list(orientation.tuples)
            tuples[i] = (t[1], t[0]) + t[2:]
            swapped = OrientationData(tuple(tuples))
            with pytest.raises(IncoherentOrientationError) as err:
                OrientedCells.of(structure, swapped)
            exc = err.value
            assert tuples[i] in (exc.cell_a, exc.cell_b)
            pair = tuple(sorted((cell_label(exc.cell_a), cell_label(exc.cell_b))))
            assert pair in ridge_conflicts(swapped.tuples)
            assert exc.ridge == set(exc.cell_a) & set(exc.cell_b)
            # a failed check keeps nothing, so it fails again
            with pytest.raises(IncoherentOrientationError):
                sign_pattern(structure, cm, swapped)


def arbitrary_map(cm, rng):
    """A map of the same rank and size with seeded primitive vectors of
    entries in [-2, 2], so that its cells have dets 0, +-1 and larger."""
    vectors = rng.choices(candidate_vectors(cm.rank, 2), k=len(cm.vectors))
    return CharacteristicMap.of(cm.rank, vectors)


DET_CASES = CASES + [
    (f"{name}:any", structure, orientation, arbitrary_map(cm, random.Random(f"any:{name}")))
    for name, structure, orientation, cm in CASES
]


@pytest.mark.parametrize("name, structure, orientation, cm", DET_CASES,
                         ids=[case[0] for case in DET_CASES])
class TestOneDeterminantPerCell:
    def test_dets_over_sorted_carriers(self, name, structure, orientation, cm):
        assert structure.ordered == tuple(tuple(sorted(cell)) for cell in structure.cells)
        assert _cell_dets(structure, cm) == tuple(
            det([cm.vector(i) for i in sorted(cell)]) for cell in structure.cells
        )

    def test_parity_times_det_is_the_tuple_det(self, name, structure, orientation, cm):
        parities = OrientedCells.of(structure, orientation).parities
        tuple_dets = [p * d for p, d in zip(parities, _cell_dets(structure, cm))]
        assert tuple_dets == list(oracle_signs(cm, orientation))
        bad = [(t, d) for t, d in zip(orientation.tuples, tuple_dets) if abs(d) != 1]
        if not bad:
            assert sign_pattern(structure, cm, orientation) == tuple(tuple_dets)
            return
        t, d = bad[0]
        with pytest.raises(UnimodularityError) as err:
            sign_pattern(structure, cm, orientation)
        assert str(err.value) == f"cell {t} has det {d}, not a unimodular minor"


@pytest.mark.parametrize("name", ORIENTED)
def test_relabeling_permutes_the_signs(name):
    structure, orientation, cm = fixture_case(name)
    signs = sign_pattern(structure, cm, orientation)
    for seed in range(3):
        rng = random.Random(f"signs:{name}:{seed}")
        new, new_orientation, new_cm, order = relabeled(structure, orientation, cm, rng)
        assert sign_pattern(new, new_cm, new_orientation) == tuple(signs[k] for k in order)


class TestTableIsKept:
    def test_once_per_orientation_and_structure(self):
        structure, orientation, _ = fixture_case("barnette")
        table = OrientedCells.of(structure, orientation)
        assert OrientedCells.of(structure, orientation) is table
        # an equal structure that is another object is checked on its own
        copy = SimplicialComplex.of(structure.num_vertices, structure.facets)
        other = OrientedCells.of(copy, orientation)
        assert other is not table and other.structure is copy
        assert (other.tuples, other.parities) == (table.tuples, table.parities)

    def test_failed_check_keeps_the_last_table(self):
        structure, orientation, _ = fixture_case("pentagon")
        table = OrientedCells.of(structure, orientation)
        square = get_fixture("square").polytope
        for _ in range(2):
            with pytest.raises(ValidationError, match="does not match the cell list"):
                OrientedCells.of(square, orientation)
        assert OrientedCells.of(structure, orientation) is table
