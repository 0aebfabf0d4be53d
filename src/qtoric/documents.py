"""Strict document format for CLI inputs and outputs.

Documents are JSON objects with a "kind" tag; unknown fields and repeated
keys (at any depth) are rejected, integers are arbitrary precision, indices
are 1-based, and Q(sqrt 2) values are serialized as exact fraction pairs
{"rat": "p/q", "sqrt2": "r/s"} -- never decimals.  Serialization is
canonical: serializing twice yields byte-identical text.

Canonical JSON is the text of ``json.dumps(obj, sort_keys=True, indent=2)``
plus a newline, written by a small recursive encoder instead: with
``indent`` set, ``json`` falls back to its pure-Python encoder, which is
about twice as slow.  Strings go through ``json``'s own ASCII escaper, ints
through ``int.__repr__``, dict keys must be strings and are sorted, each
list or dict is joined in one ``str.join``, and any other value (a float, a
Fraction) raises TypeError.  ``tests/test_documents.py`` keeps ``json.dumps``
as the oracle.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, List, Sequence, Tuple, Union

from .charmap import CharacteristicMap
from .charsearch import GOALS, SearchConfig
from .complexes import OrientationData, SimplePolytope, SimplicialComplex
from .cyclic import AngleSpec
from .errors import ParseError, SchemaError
from .exactnum import Sqrt2Number

DomainValue = Union[
    SimplicialComplex,
    SimplePolytope,
    CharacteristicMap,
    OrientationData,
    AngleSpec,
    SearchConfig,
]


@dataclass(frozen=True)
class Document:
    kind: str
    value: DomainValue


def _require_keys(obj: Dict[str, Any], required: Sequence[str],
                  optional: Sequence[str] = ()) -> None:
    for key in required:
        if key not in obj:
            raise SchemaError(key, "missing required field")
    allowed = set(required) | set(optional) | {"kind"}
    for key in obj:
        if key not in allowed:
            raise SchemaError(key, "unknown field")


def _int(obj: Any, field: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise SchemaError(field, f"expected an integer, got {obj!r}")
    return obj


def _int_list(obj: Any, field: str) -> List[int]:
    if not isinstance(obj, list):
        raise SchemaError(field, f"expected a list, got {obj!r}")
    return [_int(x, f"{field}[{i}]") for i, x in enumerate(obj)]


def _int_list_list(obj: Any, field: str) -> List[List[int]]:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(field, "expected a non-empty list of lists")
    return [_int_list(x, f"{field}[{i}]") for i, x in enumerate(obj)]


def fraction_to_json(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def sqrt2_to_json(x: Sqrt2Number) -> Dict[str, str]:
    return {"rat": fraction_to_json(x.rat), "sqrt2": fraction_to_json(x.sqrt2)}


# -- per-kind encoders/decoders ---------------------------------------------


def _decode_simplicial_complex(obj: Dict[str, Any]) -> SimplicialComplex:
    _require_keys(obj, ["num_vertices", "facets"])
    facets = _int_list_list(obj["facets"], "facets")
    for i, f in enumerate(facets):
        if not f:
            raise SchemaError(f"facets[{i}]", "facet must not be empty")
    return SimplicialComplex.of(_int(obj["num_vertices"], "num_vertices"), facets)


def _encode_simplicial_complex(k: SimplicialComplex) -> Dict[str, Any]:
    return {
        "kind": "simplicial_complex",
        "num_vertices": k.num_vertices,
        "facets": [sorted(f) for f in k.facets],
    }


def _decode_simple_polytope(obj: Dict[str, Any]) -> SimplePolytope:
    _require_keys(obj, ["num_facets", "dimension", "vertices"])
    return SimplePolytope.of(
        _int(obj["num_facets"], "num_facets"),
        _int(obj["dimension"], "dimension"),
        _int_list_list(obj["vertices"], "vertices"),
    )


def _encode_simple_polytope(p: SimplePolytope) -> Dict[str, Any]:
    return {
        "kind": "simple_polytope",
        "num_facets": p.num_facets,
        "dimension": p.dimension,
        "vertices": [sorted(v) for v in p.vertices],
    }


def _decode_charmap(obj: Dict[str, Any]) -> CharacteristicMap:
    _require_keys(obj, ["rank", "vectors"])
    rank = _int(obj["rank"], "rank")
    vectors = _int_list_list(obj["vectors"], "vectors")
    for i, v in enumerate(vectors):
        if len(v) != rank:
            raise SchemaError(
                f"vectors[{i}]",
                f"vector for label {i + 1} (facet {i + 1} or sphere vertex {i + 1}) "
                f"has dimension {len(v)}, expected {rank}",
            )
    return CharacteristicMap.of(rank, vectors)


def _encode_charmap(cm: CharacteristicMap) -> Dict[str, Any]:
    return {
        "kind": "charmap",
        "rank": cm.rank,
        "vectors": [list(v) for v in cm.vectors],
    }


def _decode_orientation(obj: Dict[str, Any]) -> OrientationData:
    _require_keys(obj, ["tuples"], ["reversed_seed"])
    reversed_seed = obj.get("reversed_seed", False)
    if not isinstance(reversed_seed, bool):
        raise SchemaError("reversed_seed", "expected a boolean")
    return OrientationData(
        tuple(tuple(t) for t in _int_list_list(obj["tuples"], "tuples")),
        reversed_seed,
    )


def _encode_orientation(o: OrientationData) -> Dict[str, Any]:
    return {
        "kind": "orientation",
        "tuples": [list(t) for t in o.tuples],
        "reversed_seed": o.reversed_seed,
    }


def _decode_angles(obj: Dict[str, Any]) -> AngleSpec:
    _require_keys(obj, ["eighth_turns"])
    return AngleSpec(tuple(_int_list(obj["eighth_turns"], "eighth_turns")))


def _encode_angles(a: AngleSpec) -> Dict[str, Any]:
    return {"kind": "angles", "eighth_turns": list(a.eighth_turns)}


def _decode_search_config(obj: Dict[str, Any]) -> SearchConfig:
    _require_keys(
        obj,
        ["bound", "base_vertex", "goal"],
        ["order", "solution_cap", "node_budget"],
    )
    goal = obj["goal"]
    if not isinstance(goal, str) or goal not in GOALS:
        expected = " or ".join(repr(name) for name in GOALS)
        raise SchemaError("goal", f"expected {expected}, got {goal!r}")
    kwargs: Dict[str, Any] = {}
    if "order" in obj:
        kwargs["order"] = tuple(_int_list(obj["order"], "order"))
    if "solution_cap" in obj:
        kwargs["solution_cap"] = _int(obj["solution_cap"], "solution_cap")
    if "node_budget" in obj:
        kwargs["node_budget"] = _int(obj["node_budget"], "node_budget")
    return SearchConfig(
        bound=_int(obj["bound"], "bound"),
        base_vertex=tuple(_int_list(obj["base_vertex"], "base_vertex")),
        goal=goal,
        **kwargs,
    )


def _encode_search_config(c: SearchConfig) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "kind": "search_config",
        "bound": c.bound,
        "base_vertex": list(c.base_vertex),
        "goal": c.goal,
        "node_budget": c.node_budget,
    }
    if c.order is not None:
        out["order"] = list(c.order)
    if c.solution_cap is not None:
        out["solution_cap"] = c.solution_cap
    return out


_DECODERS = {
    "simplicial_complex": _decode_simplicial_complex,
    "simple_polytope": _decode_simple_polytope,
    "charmap": _decode_charmap,
    "orientation": _decode_orientation,
    "angles": _decode_angles,
    "search_config": _decode_search_config,
}

_ENCODERS = {
    SimplicialComplex: _encode_simplicial_complex,
    SimplePolytope: _encode_simple_polytope,
    CharacteristicMap: _encode_charmap,
    OrientationData: _encode_orientation,
    AngleSpec: _encode_angles,
    SearchConfig: _encode_search_config,
}


def _unique_keys(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
    """A JSON object's members as a dict; a repeated key is an error, where
    plain json.loads would keep only the last of them."""
    obj: Dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(key, "repeated key")
        obj[key] = value
    return obj


def parse_document(text: str) -> Document:
    """Parse a document with strict structural validation."""
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ParseError("document is nested too deeply")
    except ValueError as exc:
        # json.loads raises a bare ValueError only for an integer literal
        # past the interpreter's digit limit (Python 3.11, 3.10.7 and later)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            raise ParseError(str(exc))
        raise ParseError(f"an integer literal is longer than {limit} digits, "
                         "the longest integer a document may hold")
    if not isinstance(obj, dict):
        raise SchemaError("$", "document must be a JSON object")
    kind = obj.get("kind")
    # a list or an object is unhashable, so test the type before the lookup
    if not isinstance(kind, str) or kind not in _DECODERS:
        raise SchemaError("kind", f"unknown document kind {kind!r}")
    return Document(kind, _DECODERS[kind](obj))


def document_to_obj(value: DomainValue) -> Dict[str, Any]:
    try:
        encoder = _ENCODERS[type(value)]
    except KeyError:
        raise SchemaError("kind", f"cannot serialize {type(value).__name__}")
    return encoder(value)


def serialize_document(value: DomainValue) -> str:
    """Canonical serialization: deterministic field order, trailing newline."""
    return canonical_json(document_to_obj(value))


def canonical_json(obj: Any) -> str:
    return _encode(obj, "") + "\n"


def _encode(obj: Any, indent: str) -> str:
    """`obj` as indented JSON whose first line is not indented and whose
    later lines start with `indent`."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is dict:
        if not obj:
            return "{}"
        inner = indent + "  "
        body = (",\n" + inner).join([
            encode_basestring_ascii(key) + ": " + _encode(value, inner)
            for key, value in sorted(obj.items())
        ])
        return "{\n" + inner + body + "\n" + indent + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = indent + "  "
        body = (",\n" + inner).join([_encode(item, inner) for item in obj])
        return "[\n" + inner + body + "\n" + indent + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    raise TypeError(f"cannot write {kind.__name__} as canonical JSON")
