"""Strict document format for CLI inputs and outputs.

Documents are JSON objects with a "kind" tag; unknown fields and repeated
keys (at any depth) are rejected, integers are arbitrary precision, indices
are 1-based, and Q(sqrt 2) values are serialized as exact fraction pairs
{"rat": "p/q", "sqrt2": "r/s"} -- never decimals.  Serialization is
canonical: serializing twice yields byte-identical text.

A document holds the fields its value's class names in ``_fields``, under
the same names.  `_KINDS` gives per kind the class, the fields a document
must hold and a reader for each field it may hold, run in table order, so
that of two faults the same one is named first; the class then checks the
value.  Encoding writes ``kind`` and each field that is not None.

Canonical JSON is the text of ``json.dumps(obj, sort_keys=True, indent=2)``
plus a newline, written by a small recursive encoder instead: with
``indent`` set, ``json`` falls back to its pure-Python encoder, which is
about twice as slow.  Strings go through ``json``'s own ASCII escaper, ints
through ``int.__repr__``, dict keys must be strings and are sorted, each
list or dict is joined in one ``str.join``, and any other value (a float, a
Fraction) raises TypeError.  A `Fragment`, text that `fragment` encoded
once, is placed as it is at any indent.  ``tests/test_documents.py`` keeps
``json.dumps`` as the oracle.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, TypeAlias, Union

from .charmap import CharacteristicMap
from .charsearch import GOALS, SearchConfig
from .complexes import OrientationData, SimplePolytope, SimplicialComplex
from .cyclic import AngleSpec
from .errors import ParseError, SchemaError
from .exactnum import Sqrt2Number
from .values import Value

# a string, so that typing caches no subscript holding this import's classes
DomainValue: TypeAlias = (
    "Union[SimplicialComplex, SimplePolytope, CharacteristicMap, OrientationData, AngleSpec, "
    "SearchConfig]"
)


class Document(Value):
    _fields = ("kind", "value")

    def __init__(self, kind: str, value: DomainValue):
        self.__dict__.update(kind=kind, value=value)


def _int(obj: Any, field: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise SchemaError(field, f"expected an integer, got {obj!r}")
    return obj


def _int_list(obj: Any, field: str) -> List[int]:
    if not isinstance(obj, list):
        raise SchemaError(field, f"expected a list, got {obj!r}")
    # a list of ints passes in one scan; the entry paths are built only to
    # name the entry that fails (type(True) is bool, so bools take that path)
    if all(type(x) is int for x in obj):
        return obj
    return [_int(x, f"{field}[{i}]") for i, x in enumerate(obj)]


def _int_list_list(obj: Any, field: str) -> List[List[int]]:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(field, "expected a non-empty list of lists")
    return [_int_list(x, f"{field}[{i}]") for i, x in enumerate(obj)]


def _facets(obj: Any, field: str) -> List[List[int]]:
    facets = _int_list_list(obj, field)
    for i, f in enumerate(facets):
        if not f:
            raise SchemaError(f"{field}[{i}]", "facet must not be empty")
    return facets


def _bool(obj: Any, field: str) -> bool:
    if not isinstance(obj, bool):
        raise SchemaError(field, "expected a boolean")
    return obj


def _goal(obj: Any, field: str) -> str:
    if not isinstance(obj, str) or obj not in GOALS:
        expected = " or ".join(repr(name) for name in GOALS)
        raise SchemaError(field, f"expected {expected}, got {obj!r}")
    return obj


def _vectors_of_rank(values: Dict[str, Any]) -> None:
    rank = values["rank"]
    for i, v in enumerate(values["vectors"]):
        if len(v) != rank:
            raise SchemaError(
                f"vectors[{i}]",
                f"vector for label {i + 1} (facet {i + 1} or sphere vertex {i + 1}) "
                f"has dimension {len(v)}, expected {rank}",
            )


def fraction_to_json(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def sqrt2_to_json(x: Sqrt2Number) -> Dict[str, str]:
    return {"rat": fraction_to_json(x.rat), "sqrt2": fraction_to_json(x.sqrt2)}


class _Kind(NamedTuple):
    """A document kind.  `readers` has every field a document may hold, in
    reading order; `check` sees the fields read before the class is built."""

    cls: type
    required: Tuple[str, ...]
    readers: Dict[str, Callable[[Any, str], Any]]
    check: Optional[Callable[[Dict[str, Any]], None]] = None


_KINDS: Dict[str, _Kind] = {
    "simplicial_complex": _Kind(SimplicialComplex, ("num_vertices", "facets"),
                                {"facets": _facets, "num_vertices": _int}),
    "simple_polytope": _Kind(SimplePolytope, ("num_facets", "dimension", "vertices"), {
        "num_facets": _int, "dimension": _int, "vertices": _int_list_list}),
    "charmap": _Kind(CharacteristicMap, ("rank", "vectors"),
                     {"rank": _int, "vectors": _int_list_list}, _vectors_of_rank),
    "orientation": _Kind(OrientationData, ("tuples",),
                         {"reversed_seed": _bool, "tuples": _int_list_list}),
    "angles": _Kind(AngleSpec, ("eighth_turns",), {"eighth_turns": _int_list}),
    "search_config": _Kind(SearchConfig, ("bound", "base_vertex", "goal"), {
        "goal": _goal, "order": _int_list, "solution_cap": _int, "node_budget": _int,
        "bound": _int, "base_vertex": _int_list}),
}

# each class's kind and field names, by class, so that encoding a value
# takes both in one lookup
_FIELDS = {k.cls: (name, k.cls._fields) for name, k in _KINDS.items()}


def _decode(spec: _Kind, obj: Dict[str, Any]) -> DomainValue:
    for key in spec.required:
        if key not in obj:
            raise SchemaError(key, "missing required field")
    for key in obj:
        if key not in spec.readers and key != "kind":
            raise SchemaError(key, "unknown field")
    values = {name: read(obj[name], name) for name, read in spec.readers.items() if name in obj}
    if spec.check is not None:
        spec.check(values)
    return spec.cls(**values)


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
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SchemaError("kind", f"unknown document kind {kind!r}")
    return Document(kind, _decode(_KINDS[kind], obj))


def document_to_obj(value: DomainValue) -> Dict[str, Any]:
    """`kind` and each field that is not None: a tuple as a list, and the
    tuple or frozenset entries of a tuple (its cells) as lists, a frozenset's
    sorted."""
    try:
        kind, names = _FIELDS[type(value)]
    except KeyError:
        raise SchemaError("kind", f"cannot serialize {type(value).__name__}")
    obj: Dict[str, Any] = {"kind": kind}
    for name in names:
        field_value = getattr(value, name)
        if type(field_value) is tuple:
            # a field's tuple holds entries of one type
            entry = type(field_value[0]) if field_value else int
            obj[name] = ([sorted(c) for c in field_value] if entry is frozenset
                         else [list(t) for t in field_value] if entry is tuple
                         else list(field_value))
        elif field_value is not None:
            obj[name] = field_value
    return obj


def serialize_document(value: DomainValue) -> str:
    """Canonical serialization: deterministic field order, trailing newline."""
    return canonical_json(document_to_obj(value))


def canonical_json(obj: Any) -> str:
    return _encode(obj, "") + "\n"


class Fragment(str):
    """The canonical JSON text of a value at indent "", from `fragment`."""


def fragment(obj: Any) -> Fragment:
    """`obj` encoded once, for reports that embed the same value on every
    call: `_encode` writes the text in place of the value."""
    return Fragment(_encode(obj, ""))


def _encode(obj: Any, indent: str) -> str:
    """`obj` as indented JSON whose first line is not indented and whose
    later lines start with `indent`."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    # the str and int members of a dict or list are written in place, without
    # a call each; a bool is not one of them, since type(True) is bool
    if kind is dict:
        if not obj:
            return "{}"
        inner = indent + "  "
        parts = []
        for key in sorted(obj):
            value = obj[key]
            member_kind = type(value)
            parts.append(encode_basestring_ascii(key) + ": " + (
                encode_basestring_ascii(value) if member_kind is str
                else int.__repr__(value) if member_kind is int
                else _encode(value, inner)
            ))
        return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = indent + "  "
        parts = []
        for item in obj:
            member_kind = type(item)
            parts.append(
                encode_basestring_ascii(item) if member_kind is str
                else int.__repr__(item) if member_kind is int
                else _encode(item, inner)
            )
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + "]"
    if kind is Fragment:
        # the text at indent "" with each later line indented: a string's
        # JSON form never holds a raw newline, so each newline starts a line
        return obj.replace("\n", "\n" + indent)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    raise TypeError(f"cannot write {kind.__name__} as canonical JSON")
