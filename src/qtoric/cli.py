"""Command-line front end.

Every subcommand reads documents (from files or the built-in fixtures),
runs one check or construction, and prints a canonical JSON report.
Exit codes: 0 = check passed / output produced, 1 = check failed
(e.g. a -1 sign found), 2 = input error, bad flag values included.

A subcommand is a function ``(ctx, args) -> (verdict, details, exit_code)``
on its resolved inputs: a namespace with the field `_FIELD_OF_KIND` names
for each document kind, None where no input fills it, and the provenance
list.  It neither reads inputs nor writes output: ``main`` alone loads
the inputs, builds the report envelope ``{"check", "verdict", "details",
"provenance"}`` and writes it to stdout or ``--output``.  ``dualize`` and
``fixtures`` return the bare document they print instead of a verdict.

What depends only on process-cached objects is done once per process: the
parser, each fixture, the polar of an angle tuple and the encoded details
of ``polar``, ``cyclic-gen`` and ``orient-tuples`` on it, each cached
structure's cell labels, ordered carriers and bitmasks, and each cached
orientation's checked `OrientedCells` table.  A document read from a file
is a new object, so it is decoded and checked on every call.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache
from types import SimpleNamespace
from typing import Any, Dict, Optional, Sequence, Tuple

from . import charmap as cm_mod
from . import charsearch, complexes, cyclic, fanchk
from .charsearch import GOALS, SearchConfig
from .complexes import OrientationData
from .cyclic import CaratheodoryRealization
from .documents import (
    Fragment, canonical_json, document_to_obj, fraction_to_json, fragment, parse_document,
    sqrt2_to_json
)
from .errors import NonOrientableError, QtoricError
from .exactnum import gf2_solve
from .fixtures import (
    D47_ANGLES, D47_REFERENCE_TUPLES, FIXTURE_NAMES, Fixture, get_fixture
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

# what a subcommand returns: verdict, details (a dict or a Fragment), exit code
Result = Tuple[Any, Any, int]


# the input field a document of each kind fills
_FIELD_OF_KIND = {
    "simplicial_complex": "complex",
    "simple_polytope": "polytope",
    "orientation": "orientation",
    "charmap": "charmap",
    "angles": "angles",
    "search_config": "search_config",
}


class InputError(Exception):
    pass


_INTEGER = re.compile("-?[0-9]+")


def _integer(text: str) -> int:
    """An integer flag value: ASCII digits with an optional leading minus.

    int() alone also takes underscores, surrounding spaces and non-ASCII
    digits, so "1_0" would read as 10 and a fullwidth "２" as 2.
    """
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected ASCII digits with an optional -, not {text!r}")
    try:
        return int(text)
    except ValueError:  # past the interpreter's digit limit
        raise argparse.ArgumentTypeError(f"integer of {len(text)} characters is too long")


def _fixture_parts(fx: Fixture) -> Dict[str, Any]:
    """The fixture's documents, keyed by the input field each fills."""
    return {
        name: value for name in _FIELD_OF_KIND.values()
        if (value := getattr(fx, name, None)) is not None
    }


def _load_inputs(tokens: Sequence[str]) -> SimpleNamespace:
    """The input fields, None where no input fills one, and the provenance
    list; later inputs override earlier ones that fill the same field."""
    ctx = SimpleNamespace(**dict.fromkeys(_FIELD_OF_KIND.values()), provenance=[])
    for token in tokens:
        if token.startswith("fixtures:"):
            name = token.split(":", 1)[1]
            fx = get_fixture(name)
            parts = _fixture_parts(fx)
            ctx.provenance.append(f"fixture {name}: {fx.description}")
        else:
            try:
                with open(token, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise InputError(f"cannot read {token}: {exc}")
            doc = parse_document(text)
            parts = {_FIELD_OF_KIND[doc.kind]: doc.value}
            ctx.provenance.append(f"file {token} ({doc.kind})")
        for name, value in parts.items():
            setattr(ctx, name, value)
    return ctx


def _need(value, what: str):
    if value is None:
        raise InputError(f"this subcommand needs {what}")
    return value


def _exit(ok: bool) -> int:
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _angles(ctx: SimpleNamespace) -> Tuple[int, ...]:
    return _need(ctx.angles, "an angles document").eighth_turns


def _structure(ctx: SimpleNamespace):
    """The polytope or complex to check.  Angles without a polytope give the
    polar, and its orientation tuples unless an orientation was given."""
    if ctx.polytope is None and ctx.angles is not None:
        polar = cyclic.polar_of_angles(_angles(ctx))
        ctx.polytope = polar.polytope
        if ctx.orientation is None:
            ctx.orientation = polar.orientation
    if ctx.polytope is not None:
        return ctx.polytope
    return _need(ctx.complex, "a polytope, complex, or angles input")


def _orientation(ctx: SimpleNamespace) -> OrientationData:
    structure = _structure(ctx)
    if ctx.orientation is None:
        # _structure gives the polytope whenever there is one
        if ctx.polytope is not None:
            raise InputError("an orientation document is required for this polytope")
        ctx.orientation = complexes.coherent_orientation(structure)
    return ctx.orientation


# -- subcommand implementations ---------------------------------------------


def _cmd_fixtures(ctx: SimpleNamespace, args) -> Dict[str, Any]:
    if not args.name:
        return {"fixtures": list(FIXTURE_NAMES)}
    fx = get_fixture(args.name)
    parts = {name: document_to_obj(v) for name, v in _fixture_parts(fx).items()}
    return {"name": fx.name, "description": fx.description, **parts}


def _cmd_fvector(ctx: SimpleNamespace, args) -> Result:
    fv = complexes.f_vector(_need(ctx.complex, "a simplicial complex"))
    chi = complexes.euler_characteristic(fv)
    return list(fv), {"euler_characteristic": chi}, EXIT_OK


def _cmd_hvector(ctx: SimpleNamespace, args) -> Result:
    k = _need(ctx.complex, "a simplicial complex")
    fv = complexes.f_vector(k)
    hv = complexes.h_vector(fv, k.dimension + 1)
    return list(hv), {"f_vector": list(fv)}, EXIT_OK


def _cmd_orient(ctx: SimpleNamespace, args) -> Result:
    k = _need(ctx.complex, "a simplicial complex")
    ok, offending = complexes.pseudomanifold_check(k)
    if not ok:
        ridges = [list(r) for r, _ in offending]
        return "not-a-pseudomanifold", {"offending_ridges": ridges}, EXIT_CHECK_FAILED
    try:
        orientation = complexes.coherent_orientation(k)
    except NonOrientableError as exc:
        details = {
            "conflict_facets": [exc.facet_a, exc.facet_b],
            "conflict_ridge": sorted(exc.ridge),
        }
        return "non-orientable", details, EXIT_CHECK_FAILED
    return "orientable", {"orientation": document_to_obj(orientation)}, EXIT_OK


def _cmd_dualize(ctx: SimpleNamespace, args) -> Dict[str, Any]:
    k = _need(ctx.complex, "a simplicial complex")
    return document_to_obj(complexes.dualize(k))


@cache
def _angles_report(build, eighth_turns: Tuple[int, ...]) -> Tuple[str, Fragment]:
    """build(eighth_turns) -> (verdict, details), with the details encoded
    once per process and angle tuple; a failed build raises and is not kept."""
    verdict, details = build(eighth_turns)
    return verdict, fragment(details)


def _on_angles(build):
    """The subcommand whose report depends on the angles document alone."""
    return lambda ctx, args: (*_angles_report(build, _angles(ctx)), EXIT_OK)


def _cyclic_gen(eighth_turns: Tuple[int, ...]):
    realization = CaratheodoryRealization.of(eighth_turns)
    points = [[sqrt2_to_json(x) for x in p] for p in realization.points]
    return "ok", {"eighth_turns": list(eighth_turns), "points": points}


def _cmd_gale(ctx: SimpleNamespace, args) -> Result:
    facets = cyclic.gale_facets(args.n, args.d)
    details = {"n": args.n, "d": args.d, "count": len(facets)}
    return [list(f) for f in facets], details, EXIT_OK


def _polar_report(eighth_turns: Tuple[int, ...]):
    polar = cyclic.polar_of_angles(eighth_turns)
    coords = [[sqrt2_to_json(x) for x in v] for v in polar.vertex_coords]
    return "ok", {"polytope": document_to_obj(polar.polytope), "vertex_coords": coords}


def _orient_tuples(eighth_turns: Tuple[int, ...]):
    """The polar's tuples; the D4(7) ones are compared with the published list."""
    orientation = cyclic.polar_of_angles(eighth_turns).orientation
    details: Dict[str, Any] = {"orientation": document_to_obj(orientation)}
    if eighth_turns != D47_ANGLES:
        return "ok", details
    comparison = cyclic.compare_orientation_tuples(orientation, D47_REFERENCE_TUPLES)
    details["reference_comparison"] = {
        "case": comparison.case,
        "minority_parity_vertices": comparison.minority(),
    }
    return comparison.case, details


def _cmd_check_unimodular(ctx: SimpleNamespace, args) -> Result:
    structure = _structure(ctx)
    cm = _need(ctx.charmap, "a charmap document")
    ok, offenders = cm_mod.unimodularity_check(structure, cm)
    offending = [{"vertex": v, "det": d} for v, d in offenders]
    return "pass" if ok else "fail", {"offending_vertices": offending}, _exit(ok)


def _cmd_signs(ctx: SimpleNamespace, args) -> Result:
    structure = _structure(ctx)
    cm = _need(ctx.charmap, "a charmap document")
    orientation = _orientation(ctx)
    signs = cm_mod.sign_pattern(structure, cm, orientation)
    # sorted as (label, sign) pairs: {1, 23} and {12, 3} both read "123"
    by_vertex = sorted(zip(structure.labels, signs))
    ok = all(s == 1 for s in signs)
    verdict = [{"sign": s, "vertex": v} for v, s in by_vertex]
    return verdict, {"all_positive": ok}, _exit(ok)


def _cmd_almost_complex(ctx: SimpleNamespace, args) -> Result:
    structure = _structure(ctx)
    cm = _need(ctx.charmap, "a charmap document")
    orientation = _orientation(ctx)
    ok, offenders = cm_mod.almost_complex_check(structure, cm, orientation)
    return ok, {"offending_vertices": sorted(offenders)}, _exit(ok)


def _cmd_flip_solve(ctx: SimpleNamespace, args) -> Result:
    structure = _structure(ctx)
    cm = _need(ctx.charmap, "a charmap document")
    orientation = _orientation(ctx)
    result = gf2_solve(cm_mod.flip_system(structure, cm, orientation))
    if result.feasible:
        flip = list(cm_mod.flip_from_bits(result.solution))
        details = {"flip": flip, "solution_space_dimension": result.dimension}
        return "feasible", details, EXIT_OK
    contradictory = sorted(structure.labels[i - 1] for i in result.certificate)
    return "infeasible", {"contradictory_vertices": contradictory}, EXIT_CHECK_FAILED


def _cmd_fan_check(ctx: SimpleNamespace, args) -> Result:
    structure = _structure(ctx)
    cm = _need(ctx.charmap, "a charmap document")
    cones, adjacency = fanchk.cones_from_charmap(structure, cm)
    ok, offenders = fanchk.fan_properness(cones, adjacency)
    detail = []
    for off in offenders:
        entry: Dict[str, Any] = {
            "pair": [structure.labels[k - 1] for k in off["pair"]],
            "reason": off["reason"],
        }
        ray = off.get("witness_ray")
        if ray is not None:
            entry["witness_ray"] = [fraction_to_json(x) for x in ray]
        detail.append(entry)
    details = {"num_cones": len(cones), "offending_pairs": detail}
    return "proper" if ok else "improper", details, _exit(ok)


_SEARCH_FLAGS = ("bound", "goal", "base_vertex", "node_budget")


def _search_config(ctx: SimpleNamespace, args) -> SearchConfig:
    """The search_config document, or the one the flags give; not both."""
    given = [name for name in _SEARCH_FLAGS if getattr(args, name) is not None]
    if ctx.search_config is not None:
        if given:
            flag = "--" + given[0].replace("_", "-")
            raise InputError(f"{flag} cannot be combined with a search_config document")
        return ctx.search_config
    if args.base_vertex is None:
        raise InputError("search needs --base-vertex or a search_config document")
    try:
        base_vertex = tuple(_integer(x) for x in args.base_vertex.split(","))
    except argparse.ArgumentTypeError:
        raise InputError(
            f"--base-vertex takes facet labels like 2,1,3,7, not {args.base_vertex!r}"
        )
    # the flags left out take SearchConfig's defaults
    limits = {name: getattr(args, name) for name in ("bound", "node_budget")}
    if args.goal is not None:
        limits["goal"] = args.goal.replace("-", "_")
    return SearchConfig(
        base_vertex=base_vertex, **{k: v for k, v in limits.items() if v is not None}
    )


def _cmd_search(ctx: SimpleNamespace, args) -> Result:
    structure = _structure(ctx)
    orientation = _orientation(ctx)
    config = _search_config(ctx, args)
    if args.max_printed < 0:
        raise InputError(f"--max-printed must be >= 0, not {args.max_printed}")
    result = charsearch.search(structure, orientation, config)
    verdict = {
        "solutions_found": len(result.solutions),
        "nodes_explored": result.nodes,
        "exhaustive": result.exhaustive,
    }
    details = {
        "config": document_to_obj(config),
        "solutions": [document_to_obj(s) for s in result.solutions[: args.max_printed]],
        "note": (
            "bounded search is evidence, not proof, outside the "
            "searched entry range"
        ),
    }
    return verdict, details, EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every main call.

    Sharing is safe: parse_args returns a fresh Namespace, and nothing
    mutates the inputs lists it returns.
    """
    parser = argparse.ArgumentParser(
        prog="qtoric",
        description=(
            "Exact checks for characteristic maps on simple polytopes and "
            "simplicial spheres: vertex signs, flips, fans, and search."
        ),
    )
    # subcommands without inputs resolve to no input fields
    parser.set_defaults(inputs=[])
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand's own parser by name, which add_parser enters in the
    # action's choices; _parse_args reads it
    parser.commands = sub.choices

    def add(name, func, needs_inputs=True):
        p = sub.add_parser(name)
        if needs_inputs:
            p.add_argument(
                "inputs",
                nargs="*",
                help="document files or fixtures:<name>",
            )
        p.add_argument("--output", help="write the report to a file")
        p.set_defaults(func=func)
        return p

    add("fvector", _cmd_fvector)
    add("hvector", _cmd_hvector)
    add("orient", _cmd_orient)
    add("dualize", _cmd_dualize)
    add("cyclic-gen", _on_angles(_cyclic_gen))
    p = add("gale", _cmd_gale, needs_inputs=False)
    p.add_argument("--n", type=_integer, required=True, help="number of curve points")
    p.add_argument("--d", type=_integer, default=4, help="polytope dimension")
    add("polar", _on_angles(_polar_report))
    add("orient-tuples", _on_angles(_orient_tuples))
    add("check-unimodular", _cmd_check_unimodular)
    add("signs", _cmd_signs)
    add("almost-complex", _cmd_almost_complex)
    add("flip-solve", _cmd_flip_solve)
    add("fan-check", _cmd_fan_check)
    p = add("search", _cmd_search)
    # these four default to None so that a search_config document can refuse
    # them; the help shows SearchConfig's defaults, which _search_config fills in
    defaults = SearchConfig.__init__.__defaults__
    default = dict(zip(SearchConfig._fields[-len(defaults):], defaults))
    p.add_argument("--bound", type=_integer, help=f"entry bound B (default {default['bound']})")
    p.add_argument(
        "--goal",
        choices=[g.replace("_", "-") for g in GOALS],
        help=f"default {default['goal'].replace('_', '-')}",
    )
    p.add_argument("--base-vertex", help="ordered facet labels, e.g. 2,1,3,7")
    p.add_argument("--node-budget", type=_integer, help=f"default {default['node_budget']}")
    p.add_argument("--max-printed", type=_integer, default=20, help="solutions to include in the report")
    p = add("fixtures", _cmd_fixtures, needs_inputs=False)
    p.add_argument("name", nargs="?", help="fixture name; omit to list")
    return parser


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), parsed by the subcommand's own parser
    when argv[0] names one.

    The full parser hands everything after the command to that parser and
    copies its values over a Namespace holding the command and an empty
    inputs list, so this gives the same Namespace without the top-level
    pass.  No arguments, an unknown command, a leading option and any
    leftover argument go through the full parser, whose errors carry the
    top-level usage line.
    """
    parser = build_parser()
    if argv:
        command_parser = parser.commands.get(argv[0])
        if command_parser is not None:
            args, rest = command_parser.parse_known_args(
                argv[1:], argparse.Namespace(command=argv[0], inputs=[])
            )
            if not rest:
                return args
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        ctx = _load_inputs(args.inputs)
        result = args.func(ctx, args)
    except (InputError, QtoricError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    if isinstance(result, tuple):
        verdict, details, code = result
        report = {
            "check": args.command,
            "verdict": verdict,
            "details": details,
            "provenance": sorted(ctx.provenance),
        }
    else:
        report, code = result, EXIT_OK
    text = canonical_json(report)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {args.output}: {exc}\n")
            return EXIT_INPUT_ERROR
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
