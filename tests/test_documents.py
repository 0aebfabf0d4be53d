"""Tests for the strict JSON document layer."""

import json
import os
import random
from fractions import Fraction
from itertools import combinations

import pytest

from qtoric.charmap import CharacteristicMap
from qtoric.charsearch import GOALS, SearchConfig, search
from qtoric.complexes import OrientationData, SimplePolytope, SimplicialComplex
from qtoric.cyclic import AngleSpec
from qtoric.documents import (
    canonical_json,
    document_to_obj,
    fraction_to_json,
    fragment,
    parse_document,
    serialize_document,
    sqrt2_to_json,
)
from qtoric.errors import ParseError, QtoricError, SchemaError, ValidationError
from qtoric.exactnum import Sqrt2Number
from qtoric.fixtures import FIXTURE_NAMES, d47_orientation, d47_polar, get_fixture

import codec_oracle


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

    @pytest.mark.parametrize("bad", [True, 1.5, "2", None, [1]])
    def test_non_integer_entry_is_named_by_its_path(self, bad):
        text = json.dumps({"kind": "angles", "eighth_turns": [0, 1, bad, 3]})
        with pytest.raises(SchemaError) as err:
            parse_document(text)
        assert err.value.field == "eighth_turns[2]"
        text = json.dumps({"kind": "charmap", "rank": 2, "vectors": [[1, 0], [0, bad]]})
        with pytest.raises(SchemaError) as err:
            parse_document(text)
        assert err.value.field == "vectors[1][1]"


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


def mixed_container(rng, depth=0):
    """A list, tuple or dict whose members mix str, int, bool, None, empty
    containers and nested mixed containers."""
    members = []
    for _ in range(rng.randint(1, 6)):
        pick = rng.random()
        if pick < 0.2:
            members.append(random_string(rng))
        elif pick < 0.4:
            members.append(rng.choice([0, rng.randint(-5, 5), -(2**64), 2**70 + 1]))
        elif pick < 0.5:
            members.append(rng.choice([True, False]))
        elif pick < 0.6:
            members.append(None)
        elif pick < 0.75:
            members.append(rng.choice([[], {}, ()]))
        else:
            members.append(mixed_container(rng, depth + 1) if depth < 3 else "leaf")
    shape = rng.random()
    if shape < 0.4:
        return members
    if shape < 0.5:
        return tuple(members)
    return {f"{random_string(rng)}{i}": m for i, m in enumerate(members)}


def member_types(obj, seen):
    """Add (container type, member type) for every member in obj to seen."""
    if isinstance(obj, dict):
        members = obj.values()
    elif isinstance(obj, (list, tuple)):
        members = obj
    else:
        return seen
    for m in members:
        seen.add((type(obj), type(m)))
        member_types(m, seen)
    return seen


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

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_json_dumps_on_mixed_members(self, seed):
        # str and int members are written in place and the rest by a call
        # each, so every pairing of container and member type is covered
        rng = random.Random(1000 + seed)
        seen = set()
        for _ in range(300):
            obj = mixed_container(rng)
            member_types(obj, seen)
            assert canonical_json(obj) == json_dumps_oracle(obj), obj
        for container in (list, tuple, dict):
            for member in (str, int, bool, type(None), list, tuple, dict):
                assert (container, member) in seen

    @pytest.mark.parametrize("value", [
        "", "\u00e9\"\\\n\x00", -(2**64), 2**64, True, False, None, (), [()], {"": {}},
        {"b": [1, [2, []]], "a": ({},), "\u00e9": None, "A": True},
    ])
    def test_matches_json_dumps_on_edge_values(self, value):
        assert canonical_json(value) == json_dumps_oracle(value)

    @pytest.mark.parametrize("value", [
        Fraction(1, 2), [1, Fraction(1, 2)], {"x": Fraction(3)}, 1.5, {1: 2},
        [1, 1.5], ["a", 0.5, None], {"x": 1.5}, {"a": "s", "b": 2, "c": 0.25},
        ["a", 2, Fraction(1, 3)], {"a": 1, "b": Fraction(-2, 5)}, [[1, "x", 1.5]],
        {"a": {"b": [True, Fraction(1, 2)]}},
    ])
    def test_other_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            canonical_json(value)

    def test_key_order_is_sorted(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')

    def test_trailing_newline(self):
        assert canonical_json({}).endswith("\n")


def nested(value, rng, depth):
    """value wrapped in `depth` containers: a dict member or list item
    beside other members, or a tuple's one item."""
    for _ in range(depth):
        pick = rng.randrange(3)
        if pick == 0:
            value = {"b": value, "a": 1, "c": [None]}
        elif pick == 1:
            value = ["s", value, {}]
        else:
            value = (value,)
    return value


class TestFragments:
    """A Fragment, a value encoded once, is written at any indent as the
    bytes of the value itself."""

    @pytest.mark.parametrize("seed", range(3))
    def test_nested_fragment_matches_its_value(self, seed):
        rng = random.Random(2000 + seed)
        for _ in range(200):
            # random strings hold raw newlines, which a fragment's shift
            # to its indent must leave escaped
            value = random_value(rng)
            depth = rng.randint(0, 5)
            state = rng.getstate()
            plain = nested(value, rng, depth)
            rng.setstate(state)
            text = canonical_json(nested(fragment(value), rng, depth))
            assert text == canonical_json(plain) == json_dumps_oracle(plain), plain


# per kind: a valid document body, and per field the values that fail its
# reader (the first is the one each two-fault document uses)
VALID_BODIES = {
    "simplicial_complex": {"num_vertices": 4,
                           "facets": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]},
    "simple_polytope": {"num_facets": 3, "dimension": 2, "vertices": [[1, 2], [2, 3], [1, 3]]},
    "charmap": {"rank": 2, "vectors": [[1, 0], [0, 1], [-1, -1]]},
    "orientation": {"tuples": [[1, 2], [2, 3], [3, 1]], "reversed_seed": True},
    "angles": {"eighth_turns": [0, 1, 2, 3, 4, 5, 6]},
    "search_config": {"bound": 1, "base_vertex": [2, 1, 3, 7], "goal": "unimodular",
                      "order": [4, 5, 6], "solution_cap": 3, "node_budget": 100},
}
REQUIRED = {
    "simplicial_complex": ("num_vertices", "facets"),
    "simple_polytope": ("num_facets", "dimension", "vertices"),
    "charmap": ("rank", "vectors"),
    "orientation": ("tuples",),
    "angles": ("eighth_turns",),
    "search_config": ("bound", "base_vertex", "goal"),
}
BAD_INT = ["2", True, 1.5, None, [1]]
BAD_INT_LIST = [3, "1", None, {"k": 1}, [1, True], [1, 1.5], ["x"]]
BAD_INT_LIST_LIST = [[], 3, [3], [[1, "x"]], [[1], [True]], [[1], None]]
BAD_FIELDS = {
    "simplicial_complex": {"facets": BAD_INT_LIST_LIST + [[[]], [[1, 2], []]],
                           "num_vertices": BAD_INT},
    "simple_polytope": {"num_facets": BAD_INT, "dimension": BAD_INT,
                        "vertices": BAD_INT_LIST_LIST},
    # the first bad vectors hold a rank fault before a type fault, and the
    # type fault is named: every entry is read before the ranks are compared
    "charmap": {"rank": BAD_INT,
                "vectors": [[[1, 0, 0], [0, "x"]], [[1, 0], [0, 1, 0]]] + BAD_INT_LIST_LIST},
    "orientation": {"reversed_seed": [1, 0, "true", None], "tuples": BAD_INT_LIST_LIST},
    "angles": {"eighth_turns": BAD_INT_LIST},
    "search_config": {"goal": ["sideways", "all-positive", 1, None, ["unimodular"]],
                      "order": BAD_INT_LIST, "solution_cap": BAD_INT,
                      "node_budget": BAD_INT, "bound": BAD_INT, "base_vertex": BAD_INT_LIST},
}
# documents that pass every reader and that the value's class refuses
REFUSED = [
    {"kind": "simplicial_complex", "num_vertices": 5, "facets": [[1, 2], [2, 3]]},
    {"kind": "simplicial_complex", "num_vertices": 0, "facets": [[1, 2]]},
    {"kind": "simple_polytope", "num_facets": 3, "dimension": 3, "vertices": [[1, 2], [2, 3]]},
    {"kind": "charmap", "rank": 2, "vectors": [[2, 0], [0, 1]]},
    {"kind": "angles", "eighth_turns": [0, 9]},
    {"kind": "angles", "eighth_turns": [3, 1]},
    {"kind": "search_config", "bound": 0, "base_vertex": [1], "goal": "unimodular"},
    {"kind": "search_config", "bound": 1, "base_vertex": [1], "goal": "unimodular",
     "solution_cap": 0},
    {"kind": "search_config", "bound": 1, "base_vertex": [1], "goal": "unimodular",
     "node_budget": -1},
]


def malformed_corpus():
    """(document, faults): each reader fault of each kind, each pair of
    faulty fields, each missing required field and pair of them, an unknown
    field, and documents the value's class refuses (no fault of a reader)."""
    corpus = []
    for kind, body in VALID_BODIES.items():
        valid = {"kind": kind, **body}
        bad = BAD_FIELDS[kind]
        assert set(bad) == set(body)
        for name, values in bad.items():
            corpus += [({**valid, name: value}, 1) for value in values]
        for a, b in combinations(bad, 2):
            corpus.append(({**valid, a: bad[a][0], b: bad[b][0]}, 2))
        for size in (1, 2):
            for names in combinations(REQUIRED[kind], size):
                corpus.append(({k: v for k, v in valid.items() if k not in names}, size))
        corpus.append(({**valid, "extra": 1}, 1))
    return corpus + [(doc, 0) for doc in REFUSED]


def decode_outcome(decode, text):
    try:
        value = decode(text)
    except QtoricError as exc:
        return type(exc), getattr(exc, "field", None), str(exc)
    return "ok", value


def encodable_values():
    values = list(SAMPLE_VALUES) + list(BOOL_VALUES)
    for name in FIXTURE_NAMES:
        fx = get_fixture(name)
        values += [
            v for v in (fx.complex, fx.polytope, fx.orientation, fx.charmap, fx.angles)
            if v is not None
        ]
    polar = d47_polar()
    values += [polar.polytope, polar.orientation, polar.orientation.reversed()]
    return values


def random_search_config(rng):
    optional = {}
    if rng.random() < 0.5:
        optional["order"] = tuple(rng.sample(range(1, 20), rng.randint(0, 6)))
    if rng.random() < 0.5:
        optional["solution_cap"] = rng.randint(1, 10**6)
    if rng.random() < 0.5:
        optional["node_budget"] = rng.randint(0, 10**12)
    return SearchConfig(
        base_vertex=tuple(rng.sample(range(1, 20), rng.randint(1, 5))),
        bound=rng.randint(1, 5), goal=rng.choice(sorted(GOALS)), **optional,
    )


class TestPerKindCodecOracle:
    """The schema table decodes and encodes as the six per-kind codecs of
    `codec_oracle` do: the same values, bytes and first fault."""

    def assert_same_encoding(self, values):
        for value in values:
            obj = document_to_obj(value)
            assert obj == codec_oracle.encode(value), value
            text = serialize_document(value)
            assert text == canonical_json(codec_oracle.encode(value))
            assert parse_document(text).value == codec_oracle.decode(json.loads(text)) == value

    def test_fixture_and_sample_values(self):
        self.assert_same_encoding(encodable_values())

    def test_d47_unimodular_bound_one_solutions(self):
        config = SearchConfig(bound=1, base_vertex=(2, 1, 3, 7), goal="unimodular")
        solutions = search(d47_polar().polytope, d47_orientation(), config).solutions
        assert len(solutions) == 640
        self.assert_same_encoding([config] + list(solutions))

    def test_seeded_search_configs(self):
        rng = random.Random(23)
        configs = [random_search_config(rng) for _ in range(300)]
        for name in ("order", "solution_cap"):
            assert {getattr(c, name) is None for c in configs} == {True, False}
        self.assert_same_encoding(configs)

    def test_malformed_corpus_names_the_same_first_fault(self):
        corpus = malformed_corpus()
        for doc, faults in corpus:
            text = json.dumps(doc)
            ours = decode_outcome(lambda t: parse_document(t).value, text)
            assert ours == decode_outcome(lambda t: codec_oracle.decode(json.loads(t)), text), text
            assert ours[0] != "ok" and (ours[0] is SchemaError) == bool(faults), text
        two_fault_fields = {parse_fault(doc) for doc, faults in corpus if faults == 2}
        # of each two faults the one read first is named: every field but
        # the last that its kind reads
        assert {"facets", "reversed_seed", "goal", "order", "solution_cap", "node_budget",
                "bound", "rank", "num_facets", "dimension"} <= two_fault_fields


def parse_fault(doc):
    with pytest.raises(SchemaError) as err:
        parse_document(json.dumps(doc))
    return err.value.field
