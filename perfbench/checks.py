"""Output checks for every benchmark call, run outside the timed region.

Each check returns None when the report is right and a one-line reason
otherwise.  ``recorded`` is golden.json, written by record.py at the
commit that defined the benchmark.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, Optional, Tuple

from workloads import Call

Outcome = Tuple[Any, str, str]  # exit code, stdout, stderr

DOC = "@DOC@"


def golden_key(call: Call) -> str:
    det = call.expect.get("det")
    return call.key if det is None else f"{call.key}|det{det:+d}"


def _check_golden(call: Call, out: Outcome, recorded, qt) -> Optional[str]:
    want = recorded["golden"].get(golden_key(call))
    if want is None:
        return f"no recorded report for {golden_key(call)}"
    doc = call.expect.get("doc") or DOC
    for label, got, exp in zip(("exit code", "stdout", "stderr"), out,
                               (want["exit"], want["stdout"], want["stderr"])):
        if isinstance(exp, str):
            exp = exp.replace(DOC, doc)
        if got != exp:
            return f"{label} differs from the recorded report"
    return None


def _check_signs(call: Call, out: Outcome, recorded, qt) -> Optional[str]:
    code, stdout, _ = out
    det = call.expect["det"]
    want = {v: s * det for v, s in recorded["signs"][call.expect["fixture"]].items()}
    all_positive = all(s == 1 for s in want.values())
    if code != (0 if all_positive else 1):
        return f"exit code {code}"
    report = json.loads(stdout)
    got = {e["vertex"]: e["sign"] for e in report["verdict"]}
    if got != want:
        return "sign pattern is not the fixture's pattern times det U"
    if report["details"]["all_positive"] is not all_positive:
        return "all_positive flag disagrees with the signs"
    return None


def _check_fan(call: Call, out: Outcome, recorded, qt) -> Optional[str]:
    code, stdout, _ = out
    want = recorded["fan"][call.expect["case"]]
    if code != want["exit"]:
        return f"exit code {code}"
    report = json.loads(stdout)
    if report["verdict"] != want["verdict"]:
        return f"verdict {report['verdict']}"
    details = report["details"]
    if details["num_cones"] != want["num_cones"]:
        return f"{details['num_cones']} cones"
    offenders = details["offending_pairs"]
    pairs = sorted([e["pair"][0], e["pair"][1], e["reason"]] for e in offenders)
    if pairs != sorted(want["pairs"]):
        return "offending pairs changed under U"
    vectors = call.expect["vectors"]
    for entry in offenders:
        ray = entry.get("witness_ray")
        if ray is None:
            continue
        point = [Fraction(x) for x in ray]
        for label in entry["pair"]:
            cone = qt.fanchk.SimplicialCone.of([vectors[int(c) - 1] for c in label])
            if not qt.fanchk.cone_membership(cone, point)[1]:
                return f"witness ray of {entry['pair']} is not inside cone {label}"
    return None


def _check_search(call: Call, out: Outcome, recorded, qt) -> Optional[str]:
    code, stdout, _ = out
    if code != 0:
        return f"exit code {code}"
    report = json.loads(stdout)
    verdict = report["verdict"]
    if verdict["exhaustive"] is not True:
        return "search not exhaustive"
    found = verdict["solutions_found"]
    solutions = report["details"]["solutions"]
    if call.expect["goal"] == "all-positive":
        return None if found == 0 and not solutions else f"{found} all-positive solutions"
    fixture = call.expect["fixture"]
    want = recorded["search_solutions"][f"{fixture}:{call.expect['base']}"]
    if found != want or len(solutions) != want:
        return f"{found} solutions found, {len(solutions)} printed, {want} recorded"
    structure = qt.structure(fixture)
    for doc in solutions:
        cm = qt.charmap.CharacteristicMap.of(doc["rank"], doc["vectors"])
        if not qt.charmap.unimodularity_check(structure, cm)[0]:
            return f"solution {doc['vectors']} is not unimodular"
    return None


CHECKS = {
    "golden": _check_golden,
    "signs": _check_signs,
    "fan": _check_fan,
    "search": _check_search,
}


def check(call: Call, out: Outcome, recorded: Dict[str, Any], qt) -> Optional[str]:
    """None if the call's report is right, else why it is not."""
    try:
        return CHECKS[call.check](call, out, recorded, qt)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


def report_counts(call: Call, out: Outcome) -> Dict[str, int]:
    """Exact counts a report states: search nodes, offending pairs."""
    if call.check == "search" and out[0] == 0:
        return {"nodes": json.loads(out[1])["verdict"]["nodes_explored"]}
    if call.check == "fan" and out[0] in (0, 1):
        offenders = json.loads(out[1])["details"]["offending_pairs"]
        return {"overlaps": sum(1 for e in offenders if "witness_ray" in e)}
    return {}
