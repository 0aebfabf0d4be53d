"""Command-line front end.

Every subcommand reads documents (from files or the built-in fixtures),
runs one check or construction, and prints a canonical JSON report.
Exit codes: 0 = check passed / output produced, 1 = check failed
(e.g. a -1 sign found), 2 = input error, bad flag values included.

A subcommand is a function ``(ctx, args) -> (verdict, details, exit_code)``
on the `Context` its inputs resolved to.  It neither reads inputs nor
writes output: ``main`` alone loads the inputs, builds the report envelope
``{"check", "verdict", "details", "provenance"}`` and writes it to stdout
or ``--output``.  ``dualize`` and ``fixtures`` return the bare document
they print instead of a verdict.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import charmap as cm_mod
from . import charsearch, complexes, cyclic, fanchk
from .charmap import CharacteristicMap
from .charsearch import SearchConfig
from .complexes import OrientationData, SimplePolytope, SimplicialComplex
from .cyclic import AngleSpec, CaratheodoryRealization, PolarPolytope
from .documents import (
    canonical_json, document_to_obj, fraction_to_json, parse_document, sqrt2_to_json
)
from .errors import NonOrientableError, QtoricError
from .exactnum import gf2_solve
from .fixtures import (
    D47_ANGLES, D47_REFERENCE_TUPLES, FIXTURE_NAMES, Fixture, get_fixture
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

# what a subcommand returns: verdict, details, exit code
Result = Tuple[Any, Dict[str, Any], int]


@dataclass
class Context:
    """Everything a subcommand may need, resolved from inputs."""

    complex: Optional[SimplicialComplex] = None
    polytope: Optional[SimplePolytope] = None
    orientation: Optional[OrientationData] = None
    charmap: Optional[CharacteristicMap] = None
    angles: Optional[AngleSpec] = None
    search_config: Optional[SearchConfig] = None
    provenance: List[str] = field(default_factory=list)


# the Context field a document of each kind fills
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


def _fixture_parts(fx: Fixture) -> Dict[str, Any]:
    """The fixture's documents, keyed by the Context field each fills."""
    parts = {
        name: getattr(fx, name)
        for name in ("complex", "polytope", "orientation", "charmap")
    }
    if fx.angles is not None:
        parts["angles"] = AngleSpec(fx.angles)
    return {name: value for name, value in parts.items() if value is not None}


def _load_inputs(tokens: Sequence[str]) -> Context:
    """Later inputs override earlier ones that fill the same field."""
    ctx = Context()
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
            except OSError as exc:
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


def _polar(ctx: Context) -> PolarPolytope:
    angles = _need(ctx.angles, "an angles document")
    return cyclic.build_polar(CaratheodoryRealization.of(angles.eighth_turns))


def _structure(ctx: Context):
    """The polytope or complex to check.  Angles without a polytope give the
    polar, and its orientation tuples unless an orientation was given."""
    if ctx.polytope is None and ctx.angles is not None:
        polar = _polar(ctx)
        ctx.polytope = polar.polytope
        if ctx.orientation is None:
            ctx.orientation = cyclic.vertex_orientation_tuples(polar)
    if ctx.polytope is not None:
        return ctx.polytope
    return _need(ctx.complex, "a polytope, complex, or angles input")


def _orientation(ctx: Context) -> OrientationData:
    structure = _structure(ctx)
    if ctx.orientation is None:
        if isinstance(structure, SimplicialComplex):
            ctx.orientation = complexes.coherent_orientation(structure)
        else:
            raise InputError(
                "an orientation document is required for this polytope"
            )
    return ctx.orientation


# -- subcommand implementations ---------------------------------------------


def _cmd_fixtures(ctx: Context, args) -> Dict[str, Any]:
    if not args.name:
        return {"fixtures": list(FIXTURE_NAMES)}
    fx = get_fixture(args.name)
    parts = {name: document_to_obj(v) for name, v in _fixture_parts(fx).items()}
    return {"name": fx.name, "description": fx.description, **parts}


def _cmd_fvector(ctx: Context, args) -> Result:
    fv = complexes.f_vector(_need(ctx.complex, "a simplicial complex"))
    chi = complexes.euler_characteristic(fv)
    return list(fv), {"euler_characteristic": chi}, EXIT_OK


def _cmd_hvector(ctx: Context, args) -> Result:
    k = _need(ctx.complex, "a simplicial complex")
    fv = complexes.f_vector(k)
    hv = complexes.h_vector(fv, k.dimension + 1)
    return list(hv), {"f_vector": list(fv)}, EXIT_OK


def _cmd_orient(ctx: Context, args) -> Result:
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


def _cmd_dualize(ctx: Context, args) -> Dict[str, Any]:
    k = _need(ctx.complex, "a simplicial complex")
    return document_to_obj(complexes.dualize(k))


def _cmd_cyclic_gen(ctx: Context, args) -> Result:
    angles = _need(ctx.angles, "an angles document")
    realization = CaratheodoryRealization.of(angles.eighth_turns)
    points = [[sqrt2_to_json(x) for x in p] for p in realization.points]
    return "ok", {"eighth_turns": list(angles.eighth_turns), "points": points}, EXIT_OK


def _cmd_gale(ctx: Context, args) -> Result:
    facets = cyclic.gale_facets(args.n, args.d)
    details = {"n": args.n, "d": args.d, "count": len(facets)}
    return [list(f) for f in facets], details, EXIT_OK


def _cmd_polar(ctx: Context, args) -> Result:
    polar = _polar(ctx)
    coords = [[sqrt2_to_json(x) for x in v] for v in polar.vertex_coords]
    details = {"polytope": document_to_obj(polar.polytope), "vertex_coords": coords}
    return "ok", details, EXIT_OK


def _cmd_orient_tuples(ctx: Context, args) -> Result:
    orientation = cyclic.vertex_orientation_tuples(_polar(ctx))
    details: Dict[str, Any] = {"orientation": document_to_obj(orientation)}
    if tuple(ctx.angles.eighth_turns) != D47_ANGLES:
        return "ok", details, EXIT_OK
    comparison = cyclic.compare_orientation_tuples(orientation, D47_REFERENCE_TUPLES)
    details["reference_comparison"] = {
        "case": comparison.case,
        "minority_parity_vertices": comparison.minority(),
    }
    return comparison.case, details, EXIT_OK


def _cmd_check_unimodular(ctx: Context, args) -> Result:
    structure = _structure(ctx)
    cm = _need(ctx.charmap, "a charmap document")
    ok, offenders = cm_mod.unimodularity_check(structure, cm)
    offending = [{"vertex": v, "det": d} for v, d in offenders]
    return "pass" if ok else "fail", {"offending_vertices": offending}, _exit(ok)


def _cmd_signs(ctx: Context, args) -> Result:
    structure = _structure(ctx)
    cm = _need(ctx.charmap, "a charmap document")
    orientation = _orientation(ctx)
    signs = cm_mod.sign_pattern(structure, cm, orientation)
    by_vertex = sorted(
        (cm_mod.cell_label(t), s) for t, s in zip(orientation.tuples, signs)
    )
    ok = all(s == 1 for s in signs)
    verdict = [{"sign": s, "vertex": v} for v, s in by_vertex]
    return verdict, {"all_positive": ok}, _exit(ok)


def _cmd_almost_complex(ctx: Context, args) -> Result:
    structure = _structure(ctx)
    cm = _need(ctx.charmap, "a charmap document")
    orientation = _orientation(ctx)
    ok, offenders = cm_mod.almost_complex_check(structure, cm, orientation)
    return ok, {"offending_vertices": sorted(offenders)}, _exit(ok)


def _cmd_flip_solve(ctx: Context, args) -> Result:
    structure = _structure(ctx)
    cm = _need(ctx.charmap, "a charmap document")
    orientation = _orientation(ctx)
    result = gf2_solve(cm_mod.flip_system(structure, cm, orientation))
    if result.feasible:
        flip = list(cm_mod.flip_from_bits(result.solution))
        details = {"flip": flip, "solution_space_dimension": result.dimension}
        return "feasible", details, EXIT_OK
    labels = [
        cm_mod.cell_label(orientation.tuples[i - 1]) for i in result.certificate
    ]
    return "infeasible", {"contradictory_vertices": sorted(labels)}, EXIT_CHECK_FAILED


def _cmd_fan_check(ctx: Context, args) -> Result:
    structure = _structure(ctx)
    cm = _need(ctx.charmap, "a charmap document")
    cones, adjacency = fanchk.cones_from_charmap(structure, cm)
    ok, offenders = fanchk.fan_properness(cones, adjacency)
    cells = cm_mod.cells_of(structure)
    detail = []
    for off in offenders:
        i, j = off["pair"]
        entry: Dict[str, Any] = {
            "pair": [cm_mod.cell_label(cells[i - 1]), cm_mod.cell_label(cells[j - 1])],
            "reason": off["reason"],
        }
        ray = off.get("witness_ray")
        if ray is not None:
            entry["witness_ray"] = [fraction_to_json(x) for x in ray]
        detail.append(entry)
    details = {"num_cones": len(cones), "offending_pairs": detail}
    return "proper" if ok else "improper", details, _exit(ok)


def _search_config(args) -> SearchConfig:
    """The search_config the flags give, when no document gives one."""
    if args.base_vertex is None:
        raise InputError("search needs --base-vertex or a search_config document")
    try:
        base_vertex = tuple(int(x) for x in args.base_vertex.split(","))
    except ValueError:
        raise InputError(
            f"--base-vertex takes facet labels like 2,1,3,7, not {args.base_vertex!r}"
        )
    goal = args.goal.replace("-", "_")
    return SearchConfig(
        bound=args.bound, base_vertex=base_vertex, goal=goal, node_budget=args.node_budget
    )


def _cmd_search(ctx: Context, args) -> Result:
    structure = _structure(ctx)
    orientation = _orientation(ctx)
    config = ctx.search_config
    if config is None:
        config = _search_config(args)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtoric",
        description=(
            "Exact checks for characteristic maps on simple polytopes and "
            "simplicial spheres: vertex signs, flips, fans, and search."
        ),
    )
    # subcommands without inputs resolve to an empty Context
    parser.set_defaults(inputs=[], extra_inputs=[])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, needs_inputs=True):
        p = sub.add_parser(name)
        if needs_inputs:
            p.add_argument(
                "inputs",
                nargs="*",
                help="document files or fixtures:<name>",
            )
            p.add_argument(
                "--input",
                dest="extra_inputs",
                action="append",
                default=[],
                help="additional document file",
            )
        p.add_argument("--output", help="write the report to a file")
        p.set_defaults(func=func)
        return p

    add("fvector", _cmd_fvector)
    add("hvector", _cmd_hvector)
    add("orient", _cmd_orient)
    add("dualize", _cmd_dualize)
    add("cyclic-gen", _cmd_cyclic_gen)
    p = add("gale", _cmd_gale, needs_inputs=False)
    p.add_argument("--n", type=int, required=True, help="number of curve points")
    p.add_argument("--d", type=int, default=4, help="polytope dimension")
    add("polar", _cmd_polar)
    add("orient-tuples", _cmd_orient_tuples)
    add("check-unimodular", _cmd_check_unimodular)
    add("signs", _cmd_signs)
    add("almost-complex", _cmd_almost_complex)
    add("flip-solve", _cmd_flip_solve)
    add("fan-check", _cmd_fan_check)
    p = add("search", _cmd_search)
    p.add_argument("--bound", type=int, default=1, help="entry bound B")
    p.add_argument(
        "--goal",
        choices=["unimodular", "all-positive"],
        default="unimodular",
    )
    p.add_argument("--base-vertex", help="ordered facet labels, e.g. 2,1,3,7")
    p.add_argument("--node-budget", type=int, default=10**9)
    p.add_argument("--max-printed", type=int, default=20, help="solutions to include in the report")
    p = add("fixtures", _cmd_fixtures, needs_inputs=False)
    p.add_argument("name", nargs="?", help="fixture name; omit to list")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ctx = _load_inputs(args.inputs + args.extra_inputs)
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
