"""Record perfbench/golden.json: the reference reports the checks compare to.

Run once, from the root of a source checkout, at the commit whose reports
are the reference:

    python3 perfbench/record.py

It stores the fixture charmaps and the D4(7) polytope and orientation
documents the workloads transform, every checks-workload report for
det U = +1 and det U = -1 (document paths replaced by @DOC@), the fixture
sign patterns, the fan-check offending pairs, and the solution count of
each seeded search base vertex.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import run
import workloads


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    sys.path.insert(0, "src")
    pkg = run.Package()
    fx = pkg.fixtures
    documents_mod = sys.modules["qtoric.documents"]
    recorded = {
        "charmaps": {
            name: [list(v) for v in fx.get_fixture(name).charmap.vectors]
            for name in ("pentagon", "barnette", "d47")
        },
        "documents": {
            "d47_polytope": documents_mod.document_to_obj(fx.d47_polar().polytope),
            "d47_orientation": documents_mod.document_to_obj(fx.d47_orientation()),
            "malformed": {"kind": "charmap", "rank": 2, "vectors": [[1, 0], [0, 1]],
                          "comment": "unknown field"},
        },
    }
    workdir = os.path.join(run.WORKDIR, "record")
    base = workloads.write_shared(os.path.join(workdir, "shared"), recorded)

    golden = {}
    signs = {}
    for det in (1, -1):
        u4 = workloads.identity(4) if det == 1 else workloads.reflection(4)
        u2 = workloads.identity(2) if det == 1 else workloads.reflection(2)
        for call in workloads.checks_pass(os.path.join(workdir, "checks"), base, u4, det, u2, det):
            (code, out, err), _ = run.run_call(pkg, call.argv)
            if call.check == "signs":
                if det == 1:
                    report = json.loads(out)
                    signs[call.expect["fixture"]] = {e["vertex"]: e["sign"] for e in report["verdict"]}
                continue
            doc = call.expect.get("doc")
            if doc:
                out, err = out.replace(doc, checks.DOC), err.replace(doc, checks.DOC)
            golden[checks.golden_key(call)] = {"exit": code, "stdout": out, "stderr": err}

    fan = {}
    for call in workloads.fan_pass(os.path.join(workdir, "fan"), base, workloads.identity(4)):
        (code, out, _), _ = run.run_call(pkg, call.argv)
        report = json.loads(out)
        fan[call.expect["case"]] = {
            "exit": code,
            "verdict": report["verdict"],
            "num_cones": report["details"]["num_cones"],
            "pairs": sorted([e["pair"][0], e["pair"][1], e["reason"]]
                            for e in report["details"]["offending_pairs"]),
        }

    search = {}
    for vertex in workloads.D47_BASES:
        base_arg = ",".join(str(x) for x in vertex)
        (_, out, _), _ = run.run_call(pkg, [
            "search", "fixtures:d47", "--bound", "1", "--goal", "unimodular",
            "--base-vertex", base_arg, "--max-printed", "0"])
        search[f"d47:{base_arg}"] = json.loads(out)["verdict"]["solutions_found"]

    recorded.update(golden=golden, signs=signs, fan=fan, search_solutions=search)
    with open(run.RECORDED, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.RECORDED}: {len(golden)} reports, fan cases {sorted(fan)}, "
          f"search counts {search}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
