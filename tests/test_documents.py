"""Tests for the strict JSON document layer."""

import json
import os
import random
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
from qtoric.errors import ParseError, SchemaError, ValidationError
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

# each kind built directly, without `of`, with a True or False where an
# integer goes; documents refuse booleans there, so the value must keep 0 or 1
BOOL_VALUES = [
    SimplicialComplex(4, (frozenset({True, 2, 3}), frozenset({1, 2, 4}),
                          frozenset({1, 3, 4}), frozenset({2, 3, 4}))),
    SimplePolytope(3, 2, (frozenset({True, 2}), frozenset({2, 3}), frozenset({True, 3}))),
    CharacteristicMap(2, ((True, False), (False, True), (-1, -1))),
    OrientationData(((True, 2), (2, 3), (3, True))),
    AngleSpec((False, True, 2, 3, 4)),
    SearchConfig(bound=True, base_vertex=(2, True, 3, 7), goal="all_positive",
                 order=(True, 2), solution_cap=True, node_budget=True),
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

    @pytest.mark.parametrize("value", BOOL_VALUES, ids=lambda v: type(v).__name__)
    def test_bool_entries_round_trip(self, value):
        text = serialize_document(value)
        parsed = parse_document(text).value
        assert parsed == value
        assert serialize_document(parsed) == text

    def test_non_bool_reversed_seed_rejected(self):
        with pytest.raises(ValidationError, match="reversed_seed"):
            OrientationData(((1, 2), (2, 3), (3, 1)), reversed_seed=1)

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
        # a list or an object is unhashable, and must not reach the lookup
        for kind in ("mystery", [], {}):
            with pytest.raises(SchemaError) as err:
                parse_document(json.dumps({"kind": kind}))
            assert err.value.field == "kind"

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_document('{"kind": "angles",')
        assert "line 1" in str(err.value)

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError):
            parse_document("[1, 2, 3]")

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"kind": "charmap", "rank": 2, "vectors": [[1, 0]], '
             '"vectors": [[0, 1]]}', "vectors"),
            ('{"kind": "angles", "kind": "angles", "eighth_turns": [0, 1]}', "kind"),
            # a nested object is not valid anywhere, but the repeat is seen first
            ('{"kind": "angles", "eighth_turns": [{"k": 0, "k": 1}]}', "k"),
        ],
        ids=["field", "kind", "nested"],
    )
    def test_repeated_key_rejected_at_any_depth(self, text, key):
        with pytest.raises(SchemaError) as err:
            parse_document(text)
        assert err.value.field == key
        assert "repeated key" in str(err.value)

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

    def test_rank_mismatch_names_the_zero_based_path(self):
        # the path is 0-based, as for a type error in the same vector, and
        # the message keeps the 1-based label the vector is attached to
        def error_for(first):
            text = json.dumps({"kind": "charmap", "rank": 2, "vectors": [first, [0, 1]]})
            with pytest.raises(SchemaError) as err:
                parse_document(text)
            return err.value

        mismatch = error_for([1, 0, 0])
        assert mismatch.field == "vectors[0]"
        assert "label 1 (facet 1 or sphere vertex 1)" in str(mismatch)
        assert error_for([0.5, 1]).field == "vectors[0][0]"

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


GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "golden.json")


def json_dumps_oracle(obj):
    """The encoder canonical_json replaces, kept as its byte-for-byte oracle."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


STRING_PIECES = ("a", "Z", " ", "\"", "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f",
                 "\u00e9", "\u221a2", "\u4e2d", "\U0001f600", "\ud800", "kind", "")


def random_string(rng):
    return "".join(rng.choice(STRING_PIECES) for _ in range(rng.randint(0, 6)))


def random_scalar(rng):
    return rng.choice([
        lambda: random_string(rng),
        lambda: rng.randint(-5, 5),
        lambda: rng.choice([-1, 1]) * rng.randint(2**63, 2**200),
        lambda: rng.choice([True, False]),
        lambda: None,
    ])()


def random_value(rng, depth=0):
    pick = rng.random() if depth < 4 else 1.0
    if pick < 0.3:
        return {random_string(rng): random_value(rng, depth + 1)
                for _ in range(rng.randint(0, 4))}
    if pick < 0.5:
        return [random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if pick < 0.6:
        return tuple(random_value(rng, depth + 1) for _ in range(rng.randint(0, 3)))
    if pick < 0.7:
        return rng.choice([[], {}, [[]], [{}], {"": []}, [[], [[]]], ()])
    return random_scalar(rng)


class TestCanonicalJson:
    def test_every_golden_report_reencodes_to_its_bytes(self):
        with open(GOLDEN, encoding="utf-8") as fh:
            recorded = json.load(fh)["golden"]
        stdouts = [r["stdout"] for r in recorded.values() if r["stdout"]]
        assert len(stdouts) == 18
        for text in stdouts:
            obj = json.loads(text)
            assert canonical_json(obj) == json_dumps_oracle(obj) == text

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_json_dumps_on_random_values(self, seed):
        rng = random.Random(seed)
        for _ in range(200):
            obj = random_value(rng)
            assert canonical_json(obj) == json_dumps_oracle(obj), obj

    @pytest.mark.parametrize("value", [
        "", "\u00e9\"\\\n\x00", -(2**64), 2**64, True, False, None, (), [()], {"": {}},
        {"b": [1, [2, []]], "a": ({},), "\u00e9": None, "A": True},
    ])
    def test_matches_json_dumps_on_edge_values(self, value):
        assert canonical_json(value) == json_dumps_oracle(value)

    @pytest.mark.parametrize("value", [
        Fraction(1, 2), [1, Fraction(1, 2)], {"x": Fraction(3)}, 1.5, {1: 2},
    ])
    def test_other_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            canonical_json(value)

    def test_key_order_is_sorted(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')

    def test_trailing_newline(self):
        assert canonical_json({}).endswith("\n")
