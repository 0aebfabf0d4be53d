"""Tests for the strict JSON document layer."""

import json
from fractions import Fraction

import pytest

from qtoric.charmap import CharacteristicMap
from qtoric.charsearch import SearchConfig
from qtoric.complexes import OrientationData, SimplePolytope, SimplicialComplex
from qtoric.cyclic import AngleSpec
from qtoric.documents import (
    canonical_json,
    fraction_to_json,
    parse_document,
    serialize_document,
    sqrt2_to_json,
)
from qtoric.errors import ParseError, SchemaError
from qtoric.exactnum import Sqrt2Number
from qtoric.fixtures import get_fixture


SAMPLE_VALUES = [
    SimplicialComplex.of(4, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]),
    SimplePolytope.of(3, 2, [(1, 2), (2, 3), (1, 3)]),
    CharacteristicMap.of(2, [(1, 0), (0, 1), (-1, -1)]),
    OrientationData(((1, 2), (2, 3), (3, 1))),
    AngleSpec((0, 1, 2, 3, 4, 5, 6)),
    SearchConfig(bound=2, base_vertex=(2, 1, 3, 7), goal="all_positive",
                 solution_cap=5),
]


class TestRoundTrip:
    def test_all_kinds(self):
        for value in SAMPLE_VALUES:
            text = serialize_document(value)
            doc = parse_document(text)
            assert doc.value == value

    def test_fixture_values(self):
        for name in ("pentagon", "d47", "barnette"):
            fx = get_fixture(name)
            for value in (fx.complex, fx.polytope, fx.orientation, fx.charmap):
                if value is None:
                    continue
                assert parse_document(serialize_document(value)).value == value

    def test_canonical_double_serialization(self):
        for value in SAMPLE_VALUES:
            once = serialize_document(value)
            twice = serialize_document(parse_document(once).value)
            assert once == twice
            assert once.endswith("\n")

    def test_big_integers_survive(self):
        big = 10**40
        cm = CharacteristicMap.of(2, [(big, big + 1)])
        assert parse_document(serialize_document(cm)).value == cm


class TestStrictness:
    def test_unknown_field_rejected(self):
        text = json.dumps(
            {"kind": "angles", "eighth_turns": [0, 1], "extra": 1}
        )
        with pytest.raises(SchemaError) as err:
            parse_document(text)
        assert err.value.field == "extra"

    def test_missing_field_rejected(self):
        with pytest.raises(SchemaError) as err:
            parse_document(json.dumps({"kind": "charmap", "rank": 2}))
        assert err.value.field == "vectors"

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            parse_document(json.dumps({"kind": "mystery"}))

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_document('{"kind": "angles",')
        assert "line 1" in str(err.value)

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError):
            parse_document("[1, 2, 3]")

    def test_three_vector_among_four_names_facet(self):
        text = json.dumps(
            {
                "kind": "charmap",
                "rank": 4,
                "vectors": [
                    [1, 0, 0, 0],
                    [0, 1, 0, 0],
                    [0, 0, 1],
                    [0, 0, 0, 1],
                ],
            }
        )
        with pytest.raises(SchemaError) as err:
            parse_document(text)
        assert "facet 3" in str(err.value)

    def test_empty_facet_list_rejected(self):
        text = json.dumps(
            {"kind": "simplicial_complex", "num_vertices": 3, "facets": []}
        )
        with pytest.raises(SchemaError):
            parse_document(text)

    def test_empty_facet_rejected(self):
        text = json.dumps(
            {"kind": "simplicial_complex", "num_vertices": 3, "facets": [[]]}
        )
        with pytest.raises(SchemaError):
            parse_document(text)

    def test_float_index_rejected(self):
        text = json.dumps(
            {"kind": "angles", "eighth_turns": [0, 1.5]}
        )
        with pytest.raises(SchemaError):
            parse_document(text)

    def test_boolean_is_not_an_integer(self):
        text = json.dumps({"kind": "angles", "eighth_turns": [0, True]})
        with pytest.raises(SchemaError):
            parse_document(text)


class TestNumbers:
    def test_fraction_round_trip(self):
        for f in (Fraction(3, 7), Fraction(-2), Fraction(10**30, 3)):
            assert Fraction(fraction_to_json(f)) == f

    def test_sqrt2_round_trip(self):
        x = Sqrt2Number.of(Fraction(1, 2), Fraction(-3, 5))
        encoded = sqrt2_to_json(x)
        assert Sqrt2Number(Fraction(encoded["rat"]), Fraction(encoded["sqrt2"])) == x

    def test_sqrt2_no_decimals(self):
        x = Sqrt2Number.of(Fraction(1, 2), Fraction(1, 2))
        encoded = json.dumps(sqrt2_to_json(x))
        assert "." not in encoded


class TestCanonicalJson:
    def test_key_order_is_sorted(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')

    def test_trailing_newline(self):
        assert canonical_json({}).endswith("\n")
