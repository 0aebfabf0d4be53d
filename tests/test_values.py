"""Value semantics of qtoric's record types, and what importing qtoric
leaves behind.

Each record type builds from its fields positionally and by keyword,
compares and hashes over its compared fields, refuses attribute
assignment, and prints as ``Name(field=value, ...)``.  The pinned repr
strings are the text the types print.
"""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from typing import Any, Dict, NamedTuple, Optional

import pytest

import qtoric
from qtoric.charmap import CharacteristicMap
from qtoric.charsearch import SearchConfig, SearchPlan, SearchResult
from qtoric.complexes import OrientationData, OrientedCells, SimplePolytope, SimplicialComplex
from qtoric.cyclic import AngleSpec, CaratheodoryRealization, OrientationComparison, PolarPolytope
from qtoric.documents import Document
from qtoric.exactnum import Gf2Result, Gf2System, Sqrt2Number
from qtoric.fanchk import SimplicialCone
from qtoric.fixtures import Fixture

TRIANGLE = SimplePolytope(3, 2, ((1, 2), (2, 3), (3, 1)))
TRIANGLE_ORIENTATION = OrientationData(((1, 2), (2, 3), (3, 1)))
UNIT_MAP = CharacteristicMap(2, ((1, 0), (0, 1)))


class Case(NamedTuple):
    cls: type
    values: Dict[str, Any]  # every field, in declaration order
    changed: Dict[str, Any]  # one field given another value
    repr: str
    defaults: Optional[Dict[str, Any]] = None  # the fields that may be left out


CASES = [
    Case(Sqrt2Number, {"rat": Fraction(1, 2), "sqrt2": Fraction(3)}, {"sqrt2": Fraction(1)},
         "(1/2 + 3*sqrt2)", {"rat": Fraction(0), "sqrt2": Fraction(0)}),
    Case(Gf2System, {"num_vars": 2, "rows": ((3, 1),)}, {"rows": ((1, 0),)},
         "Gf2System(num_vars=2, rows=((3, 1),))"),
    Case(Gf2Result, {"solution": (1, 0), "dimension": 0, "certificate": None}, {"dimension": 1},
         "Gf2Result(solution=(1, 0), dimension=0, certificate=None)"),
    Case(SimplicialComplex, {"num_vertices": 3, "facets": ((1, 2), (2, 3), (1, 3))},
         {"facets": ((2, 3), (1, 2), (1, 3))},
         "SimplicialComplex(num_vertices=3, facets=(frozenset({1, 2}), frozenset({2, 3}), "
         "frozenset({1, 3})))"),
    Case(SimplePolytope, {"num_facets": 3, "dimension": 2, "vertices": ((1, 2), (2, 3), (3, 1))},
         {"vertices": ((2, 3), (1, 2), (3, 1))},
         "SimplePolytope(num_facets=3, dimension=2, vertices=(frozenset({1, 2}), "
         "frozenset({2, 3}), frozenset({1, 3})))"),
    Case(OrientationData, {"tuples": ((1, 2), (2, 3)), "reversed_seed": True},
         {"reversed_seed": False},
         "OrientationData(tuples=((1, 2), (2, 3)), reversed_seed=True)",
         {"reversed_seed": False}),
    Case(OrientedCells, {"structure": TRIANGLE, "tuples": ((1, 2),), "parities": (1,)},
         {"parities": (-1,)},
         "OrientedCells(structure=SimplePolytope(num_facets=3, dimension=2, "
         "vertices=(frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3}))), "
         "tuples=((1, 2),), parities=(1,))"),
    Case(CharacteristicMap, {"rank": 2, "vectors": ((1, 0), (0, 1))},
         {"vectors": ((1, 0), (1, 1))}, "CharacteristicMap(rank=2, vectors=((1, 0), (0, 1)))"),
    Case(SearchConfig, {"base_vertex": (1, 2), "bound": 2, "goal": "all_positive",
                        "order": (3,), "solution_cap": 5, "node_budget": 100},
         {"goal": "unimodular"},
         "SearchConfig(base_vertex=(1, 2), bound=2, goal='all_positive', order=(3,), "
         "solution_cap=5, node_budget=100)",
         {"bound": 1, "goal": "unimodular", "order": None, "solution_cap": None,
          "node_budget": 10**9}),
    Case(SearchPlan, {"order": (3,), "completed": ((((1, 2, 3), (1,)),),)},
         {"completed": ((((1, 2, 3), (-1,)),),)},
         "SearchPlan(order=(3,), completed=((((1, 2, 3), (1,)),),))"),
    Case(SearchResult, {"solutions": (UNIT_MAP,), "nodes": 4, "exhaustive": False},
         {"nodes": 5},
         "SearchResult(solutions=(CharacteristicMap(rank=2, vectors=((1, 0), (0, 1))),), "
         "nodes=4, exhaustive=False)"),
    Case(SimplicialCone, {"generators": ((1, 0), (1, 2))}, {"generators": ((1, 0), (0, 1))},
         "SimplicialCone(generators=((1, 0), (1, 2)))"),
    Case(Fixture, {"name": "unit", "description": "a map", "complex": None, "polytope": TRIANGLE,
                   "orientation": None, "charmap": UNIT_MAP, "angles": (0, 1)},
         {"description": "another map"},
         "Fixture(name='unit', description='a map', complex=None, "
         "polytope=SimplePolytope(num_facets=3, dimension=2, vertices=(frozenset({1, 2}), "
         "frozenset({2, 3}), frozenset({1, 3}))), orientation=None, "
         "charmap=CharacteristicMap(rank=2, vectors=((1, 0), (0, 1))), angles=(0, 1))",
         {"complex": None, "polytope": None, "orientation": None, "charmap": None,
          "angles": None}),
    Case(AngleSpec, {"eighth_turns": (0, 2, 5)}, {"eighth_turns": (0, 2, 6)},
         "AngleSpec(eighth_turns=(0, 2, 5))"),
    Case(CaratheodoryRealization, {"angles": AngleSpec((0,)), "points": ((1, 0, 1, 0),)},
         {"points": ((0, 1, -1, 0),)},
         "CaratheodoryRealization(angles=AngleSpec(eighth_turns=(0,)), points=((1, 0, 1, 0),))"),
    Case(PolarPolytope, {"polytope": TRIANGLE, "vertex_coords": ((1, 1),),
                         "facet_points": ((0, 1),), "orientation": TRIANGLE_ORIENTATION},
         {"facet_points": ((1, 0),)},
         "PolarPolytope(polytope=SimplePolytope(num_facets=3, dimension=2, "
         "vertices=(frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3}))), "
         "vertex_coords=((1, 1),), facet_points=((0, 1),), "
         "orientation=OrientationData(tuples=((1, 2), (2, 3), (3, 1)), reversed_seed=False))"),
    Case(OrientationComparison, {"case": "mixed", "parities": (("12", 1), ("23", -1))},
         {"case": "same"},
         "OrientationComparison(case='mixed', parities=(('12', 1), ('23', -1)))"),
    Case(Document, {"kind": "angles", "value": AngleSpec((0, 1))},
         {"value": AngleSpec((0, 2))},
         "Document(kind='angles', value=AngleSpec(eighth_turns=(0, 1)))"),
]

IDENTITY_EQUAL = (OrientedCells,)


def test_every_record_type_has_a_case():
    assert len({case.cls for case in CASES}) == len(CASES) == 18


@pytest.mark.parametrize("case", CASES, ids=[case.cls.__name__ for case in CASES])
def test_value_semantics(case):
    cls, values = case.cls, case.values
    value = cls(**values)
    positional = cls(*values.values())
    assert [getattr(positional, name) for name in values] == [
        getattr(value, name) for name in values
    ]
    other = cls(**{**values, **case.changed})

    if cls in IDENTITY_EQUAL:
        assert value == value and value != positional and hash(value) == hash(value)
    else:
        assert value == positional and not value != positional
        assert value != other and not value == other
    assert value != object() and value != tuple(values.values())

    if cls not in IDENTITY_EQUAL:
        assert hash(value) == hash(positional)
    for name in values:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.unknown_attribute = 1
    assert [getattr(value, name) for name in values] == [
        getattr(positional, name) for name in values
    ]

    assert repr(cls(**values)) == case.repr

    if case.defaults is not None:
        required = {name: v for name, v in values.items() if name not in case.defaults}
        assert cls(**required) == cls(**required, **case.defaults)


def run_python(code: str) -> subprocess.CompletedProcess:
    """`code` in a fresh interpreter that imports qtoric from this tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qtoric.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=False,
    )


class TestImport:
    def test_cli_import_generates_no_dataclasses(self):
        proc = run_python("""
            import sys
            import qtoric.cli
            assert "dataclasses" not in sys.modules, "dataclasses imported"
            made = sorted(
                name for module, namespace in list(sys.modules.items())
                if module.startswith("qtoric") for name, value in vars(namespace).items()
                if isinstance(value, type) and hasattr(value, "__dataclass_fields__")
            )
            assert not made, made
        """)
        assert proc.returncode == 0, proc.stderr

    def test_reimport_frees_the_first_import(self):
        # typing caches a subscript such as Tuple[Sqrt2Number, ...] with its
        # arguments, so an alias evaluated at import keeps that import alive
        proc = run_python("""
            import gc, sys, weakref
            import qtoric.cli
            first = [weakref.ref(qtoric.SimplicialComplex), weakref.ref(qtoric.Sqrt2Number)]
            for name in [n for n in sys.modules if n == "qtoric" or n.startswith("qtoric.")]:
                del sys.modules[name]
            del qtoric
            import qtoric.cli
            gc.collect()
            alive = [ref().__name__ for ref in first if ref() is not None]
            assert not alive, f"{alive} of the first import are still alive"

        """)
        assert proc.returncode == 0, proc.stderr
