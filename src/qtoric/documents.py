"""Strict document format for CLI inputs and outputs.

Documents are JSON objects with a "kind" tag; unknown fields are rejected,
integers are arbitrary precision, indices are 1-based, and Q(sqrt 2) values
are serialized as exact fraction pairs {"rat": "p/q", "sqrt2": "r/s"} --
never decimals.  Serialization is canonical: serializing twice yields
byte-identical text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Sequence, Union

from .charmap import CharacteristicMap
from .charsearch import SearchConfig
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
    for i, v in enumerate(vectors, start=1):
        if len(v) != rank:
            raise SchemaError(
                f"vectors[{i}]",
                f"facet {i}: vector has dimension {len(v)}, expected {rank}",
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
    if goal not in ("unimodular", "all_positive"):
        raise SchemaError("goal", f"expected 'unimodular' or 'all_positive', got {goal!r}")
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


def parse_document(text: str) -> Document:
    """Parse a document with strict structural validation."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(obj, dict):
        raise SchemaError("$", "document must be a JSON object")
    kind = obj.get("kind")
    if kind not in _DECODERS:
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
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
