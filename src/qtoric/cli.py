"""Command-line front end.

Every subcommand reads documents (from files or the built-in fixtures),
runs one check or construction, and prints a canonical JSON report.
Exit codes: 0 = check passed / output produced, 1 = check failed
(e.g. a -1 sign found), 2 = input error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from . import charmap as cm_mod
from . import charsearch, complexes, cyclic, fanchk
from .charmap import CharacteristicMap
from .charsearch import SearchConfig
from .complexes import OrientationData, SimplePolytope, SimplicialComplex
from .cyclic import AngleSpec, CaratheodoryRealization
from .documents import (
    canonical_json,
    document_to_obj,
    parse_document,
    sqrt2_to_json,
)
from .errors import NonOrientableError, QtoricError
from .exactnum import gf2_solve
from .fixtures import (
    D47_ANGLES,
    D47_REFERENCE_TUPLES,
    FIXTURE_NAMES,
    d47_orientation,
    d47_polar,
    get_fixture,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


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
    is_d47: bool = False


class InputError(Exception):
    pass


def _load_inputs(tokens: Sequence[str]) -> Context:
    ctx = Context()
    for token in tokens:
        if token.startswith("fixtures:"):
            name = token.split(":", 1)[1]
            fx = get_fixture(name)
            ctx.complex = fx.complex or ctx.complex
            ctx.polytope = fx.polytope or ctx.polytope
            ctx.orientation = fx.orientation or ctx.orientation
            ctx.charmap = fx.charmap or ctx.charmap
            if fx.angles is not None:
                ctx.angles = AngleSpec(fx.angles)
            ctx.provenance.append(f"fixture {name}: {fx.description}")
            if name == "d47":
                ctx.is_d47 = True
        else:
            try:
                with open(token, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise InputError(f"cannot read {token}: {exc}")
            doc = parse_document(text)
            value = doc.value
            if isinstance(value, SimplicialComplex):
                ctx.complex = value
            elif isinstance(value, SimplePolytope):
                ctx.polytope = value
            elif isinstance(value, OrientationData):
                ctx.orientation = value
            elif isinstance(value, CharacteristicMap):
                ctx.charmap = value
            elif isinstance(value, AngleSpec):
                ctx.angles = value
            elif isinstance(value, SearchConfig):
                ctx.search_config = value
            ctx.provenance.append(f"file {token} ({doc.kind})")
    return ctx


def _need(ctx: Context, attr: str, what: str):
    value = getattr(ctx, attr)
    if value is None:
        raise InputError(f"this subcommand needs {what}")
    return value


def _materialize_polar(ctx: Context) -> None:
    """Build the polar polytope and its orientation from angle input."""
    if ctx.polytope is None and ctx.angles is not None:
        realization = CaratheodoryRealization.of(ctx.angles.eighth_turns)
        polar = cyclic.build_polar(realization)
        ctx.polytope = polar.polytope
        if ctx.orientation is None:
            ctx.orientation = cyclic.vertex_orientation_tuples(polar)
        if tuple(ctx.angles.eighth_turns) == D47_ANGLES:
            ctx.is_d47 = True


def _structure(ctx: Context):
    _materialize_polar(ctx)
    if ctx.polytope is not None:
        return ctx.polytope
    if ctx.complex is not None:
        return ctx.complex
    raise InputError("this subcommand needs a polytope, complex, or angles input")


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


def _emit(report: Dict[str, Any], output: Optional[str]) -> None:
    text = canonical_json(report)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(check: str, verdict: Any, details: Dict[str, Any], ctx: Optional[Context]) -> Dict[str, Any]:
    return {
        "check": check,
        "verdict": verdict,
        "details": details,
        "provenance": sorted(ctx.provenance) if ctx else [],
    }


# -- subcommand implementations ---------------------------------------------


def _cmd_fixtures(args) -> int:
    if not args.name:
        _emit({"fixtures": list(FIXTURE_NAMES)}, args.output)
        return EXIT_OK
    fx = get_fixture(args.name)
    out: Dict[str, Any] = {"name": fx.name, "description": fx.description}
    for label, value in (
        ("complex", fx.complex),
        ("polytope", fx.polytope),
        ("orientation", fx.orientation),
        ("charmap", fx.charmap),
    ):
        if value is not None:
            out[label] = document_to_obj(value)
    if fx.angles is not None:
        out["angles"] = document_to_obj(AngleSpec(fx.angles))
    _emit(out, args.output)
    return EXIT_OK


def _cmd_fvector(args) -> int:
    ctx = _load_inputs(args.inputs)
    k = _need(ctx, "complex", "a simplicial complex")
    fv = complexes.f_vector(k)
    _emit(
        _report(
            "fvector",
            list(fv),
            {"euler_characteristic": complexes.euler_characteristic(fv)},
            ctx,
        ),
        args.output,
    )
    return EXIT_OK


def _cmd_hvector(args) -> int:
    ctx = _load_inputs(args.inputs)
    k = _need(ctx, "complex", "a simplicial complex")
    fv = complexes.f_vector(k)
    hv = complexes.h_vector(fv, k.dimension + 1)
    _emit(_report("hvector", list(hv), {"f_vector": list(fv)}, ctx), args.output)
    return EXIT_OK


def _cmd_orient(args) -> int:
    ctx = _load_inputs(args.inputs)
    k = _need(ctx, "complex", "a simplicial complex")
    ok, offending = complexes.pseudomanifold_check(k)
    if not ok:
        _emit(
            _report(
                "orient",
                "not-a-pseudomanifold",
                {"offending_ridges": [list(r) for r, _ in offending]},
                ctx,
            ),
            args.output,
        )
        return EXIT_CHECK_FAILED
    try:
        orientation = complexes.coherent_orientation(k)
    except NonOrientableError as exc:
        _emit(
            _report(
                "orient",
                "non-orientable",
                {
                    "conflict_facets": [exc.facet_a, exc.facet_b],
                    "conflict_ridge": sorted(exc.ridge),
                },
                ctx,
            ),
            args.output,
        )
        return EXIT_CHECK_FAILED
    _emit(
        _report(
            "orient",
            "orientable",
            {"orientation": document_to_obj(orientation)},
            ctx,
        ),
        args.output,
    )
    return EXIT_OK


def _cmd_dualize(args) -> int:
    ctx = _load_inputs(args.inputs)
    k = _need(ctx, "complex", "a simplicial complex")
    _emit(document_to_obj(complexes.dualize(k)), args.output)
    return EXIT_OK


def _cmd_cyclic_gen(args) -> int:
    ctx = _load_inputs(args.inputs)
    angles = _need(ctx, "angles", "an angles document")
    realization = CaratheodoryRealization.of(angles.eighth_turns)
    points = [[sqrt2_to_json(x) for x in p] for p in realization.points]
    _emit(
        _report(
            "cyclic-gen",
            "ok",
            {"eighth_turns": list(angles.eighth_turns), "points": points},
            ctx,
        ),
        args.output,
    )
    return EXIT_OK


def _cmd_gale(args) -> int:
    facets = cyclic.gale_facets(args.n, args.d)
    _emit(
        _report(
            "gale",
            [list(f) for f in facets],
            {"n": args.n, "d": args.d, "count": len(facets)},
            None,
        ),
        args.output,
    )
    return EXIT_OK


def _cmd_polar(args) -> int:
    ctx = _load_inputs(args.inputs)
    angles = _need(ctx, "angles", "an angles document")
    realization = CaratheodoryRealization.of(angles.eighth_turns)
    polar = cyclic.build_polar(realization)
    _emit(
        _report(
            "polar",
            "ok",
            {
                "polytope": document_to_obj(polar.polytope),
                "vertex_coords": [
                    [sqrt2_to_json(x) for x in coords]
                    for coords in polar.vertex_coords
                ],
            },
            ctx,
        ),
        args.output,
    )
    return EXIT_OK


def _cmd_orient_tuples(args) -> int:
    ctx = _load_inputs(args.inputs)
    angles = _need(ctx, "angles", "an angles document")
    realization = CaratheodoryRealization.of(angles.eighth_turns)
    polar = cyclic.build_polar(realization)
    orientation = cyclic.vertex_orientation_tuples(polar)
    details: Dict[str, Any] = {"orientation": document_to_obj(orientation)}
    verdict = "ok"
    if tuple(angles.eighth_turns) == D47_ANGLES:
        comparison = cyclic.compare_orientation_tuples(
            orientation, D47_REFERENCE_TUPLES
        )
        details["reference_comparison"] = {
            "case": comparison.case,
            "minority_parity_vertices": comparison.minority(),
        }
        verdict = comparison.case
    _emit(_report("orient-tuples", verdict, details, ctx), args.output)
    return EXIT_OK


def _cmd_check_unimodular(args) -> int:
    ctx = _load_inputs(args.inputs)
    structure = _structure(ctx)
    cm = _need(ctx, "charmap", "a charmap document")
    ok, offenders = cm_mod.unimodularity_check(structure, cm)
    _emit(
        _report(
            "check-unimodular",
            "pass" if ok else "fail",
            {"offending_vertices": [{"vertex": v, "det": d} for v, d in offenders]},
            ctx,
        ),
        args.output,
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_signs(args) -> int:
    ctx = _load_inputs(args.inputs)
    structure = _structure(ctx)
    cm = _need(ctx, "charmap", "a charmap document")
    orientation = _orientation(ctx)
    signs = cm_mod.sign_pattern(structure, cm, orientation)
    by_vertex = sorted(
        (cm_mod.cell_label(t), s) for t, s in zip(orientation.tuples, signs)
    )
    all_positive = all(s == 1 for s in signs)
    _emit(
        _report(
            "signs",
            [{"sign": s, "vertex": v} for v, s in by_vertex],
            {"all_positive": all_positive},
            ctx,
        ),
        args.output,
    )
    return EXIT_OK if all_positive else EXIT_CHECK_FAILED


def _cmd_almost_complex(args) -> int:
    ctx = _load_inputs(args.inputs)
    structure = _structure(ctx)
    cm = _need(ctx, "charmap", "a charmap document")
    orientation = _orientation(ctx)
    ok, offenders = cm_mod.almost_complex_check(structure, cm, orientation)
    _emit(
        _report(
            "almost-complex",
            ok,
            {"offending_vertices": sorted(offenders)},
            ctx,
        ),
        args.output,
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_flip_solve(args) -> int:
    ctx = _load_inputs(args.inputs)
    structure = _structure(ctx)
    cm = _need(ctx, "charmap", "a charmap document")
    orientation = _orientation(ctx)
    system = cm_mod.flip_system(structure, cm, orientation)
    result = gf2_solve(system)
    if result.feasible:
        flip = cm_mod.flip_from_bits(result.solution)
        _emit(
            _report(
                "flip-solve",
                "feasible",
                {
                    "flip": list(flip),
                    "solution_space_dimension": result.dimension,
                },
                ctx,
            ),
            args.output,
        )
        return EXIT_OK
    labels = [
        cm_mod.cell_label(orientation.tuples[i - 1]) for i in result.certificate
    ]
    _emit(
        _report(
            "flip-solve",
            "infeasible",
            {"contradictory_vertices": sorted(labels)},
            ctx,
        ),
        args.output,
    )
    return EXIT_CHECK_FAILED


def _cmd_fan_check(args) -> int:
    ctx = _load_inputs(args.inputs)
    structure = _structure(ctx)
    cm = _need(ctx, "charmap", "a charmap document")
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
            entry["witness_ray"] = [f"{x.numerator}/{x.denominator}" for x in ray]
        detail.append(entry)
    _emit(
        _report(
            "fan-check",
            "proper" if ok else "improper",
            {"num_cones": len(cones), "offending_pairs": detail},
            ctx,
        ),
        args.output,
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_search(args) -> int:
    ctx = _load_inputs(args.inputs)
    structure = _structure(ctx)
    orientation = _orientation(ctx)
    config = ctx.search_config
    if config is None:
        if args.base_vertex is None:
            raise InputError("search needs --base-vertex or a search_config document")
        config = SearchConfig(
            bound=args.bound,
            base_vertex=tuple(int(x) for x in args.base_vertex.split(",")),
            goal=args.goal.replace("-", "_"),
            node_budget=args.node_budget,
        )
    result = charsearch.search(structure, orientation, config)
    _emit(
        _report(
            "search",
            {
                "solutions_found": len(result.solutions),
                "nodes_explored": result.nodes,
                "exhaustive": result.exhaustive,
            },
            {
                "config": document_to_obj(config),
                "solutions": [
                    document_to_obj(s)
                    for s in result.solutions[: args.max_printed]
                ],
                "note": (
                    "bounded search is evidence, not proof, outside the "
                    "searched entry range"
                ),
            },
            ctx,
        ),
        args.output,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtoric",
        description=(
            "Exact checks for characteristic maps on simple polytopes and "
            "simplicial spheres: vertex signs, flips, fans, and search."
        ),
    )
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
    p = sub.add_parser("fixtures")
    p.add_argument("name", nargs="?", help="fixture name; omit to list")
    p.add_argument("--output", help="write the report to a file")
    p.set_defaults(func=_cmd_fixtures)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "extra_inputs"):
        args.inputs = list(args.inputs) + list(args.extra_inputs)
    try:
        return args.func(args)
    except (InputError, QtoricError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
