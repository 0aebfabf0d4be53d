"""Seeded inputs and the three workloads of the qtoric benchmark.

A workload is a list of passes; a pass is a list of calls, each one argv
for ``qtoric.cli.main`` plus what the output check needs to know about it.
Every pass of a workload has the same shape and the same amount of search
and LP work, so a run that ends after any whole number of passes measures
the same mix.  The seed picks the GL(n,Z) transforms and the base vertices;
the package sees only the generated argv and JSON files.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

# Distinct transform sets written per run.  A run uses pass k % POOL, so up
# to POOL passes each see their own transform.
POOL = 16

# Base vertices come from one symmetry class per structure, so every seed
# explores the same number of nodes (86,496 at D4(7) B=2 all-positive,
# 47,760 with 640 solutions at D4(7) B=1 unimodular, 43,440 at Barnette B=1
# all-positive).  The D4(7) class is cut to the three vertices whose
# searches also evaluate nearly the same number of determinants (within 3%;
# the other two do up to 25% fewer; the Barnette class is within 6%), and
# pass k takes the k-th vertex of a seeded permutation, so runs with
# different seeds measure the same work.
D47_BASES: Tuple[Tuple[int, ...], ...] = ((1, 2, 3, 4), (2, 1, 3, 7), (1, 2, 6, 7))
BARNETTE_BASES: Tuple[Tuple[int, ...], ...] = ((1, 2, 3, 4), (3, 4, 5, 6), (1, 2, 5, 6))

WHY = {
    "search": (
        "charsearch and exactnum.det_int do over 90% of the work: pure "
        "pruning (D4(7) B=2 all-positive, Barnette B=1), and 640 solutions "
        "built and printed (D4(7) B=1 unimodular)"
    ),
    "fan": (
        "the phase-1 simplex over Sqrt2Number/Fraction dominates; Barnette "
        "and D4(7) overlap, cross4 is proper, so a shortcut for one outcome "
        "does not pass for a general gain"
    ),
    "checks": (
        "cli, documents, cyclic and charmap do the work and the search none; "
        "a quarter of the calls rebuild the D4(7) polar, which sets the tail"
    ),
}


@dataclass
class Call:
    """One CLI invocation and the facts its output check needs."""

    key: str
    argv: List[str]
    check: str  # "search", "fan", "signs" or "golden"
    expect: Dict[str, Any] = field(default_factory=dict)


def gl_transform(rng: random.Random, n: int, steps: int = 2) -> Tuple[List[List[int]], int]:
    """A random matrix in GL(n,Z) and its determinant (+1 or -1).

    A signed permutation matrix followed by `steps` row additions with
    multiplier +-1; the row additions keep the determinant.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    u = [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    det = 1
    for s in signs:
        det *= s
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                det = -det
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u, det


def reflection(n: int) -> List[List[int]]:
    """diag(-1, 1, ..., 1), the simplest transform with det -1."""
    return [[(-1 if i == 0 else 1) if i == j else 0 for j in range(n)] for i in range(n)]


def identity(n: int) -> List[List[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transform(u: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]]) -> List[List[int]]:
    n = len(u)
    return [[sum(u[i][k] * v[k] for k in range(n)) for i in range(n)] for v in vectors]


def cross4_vectors() -> List[List[int]]:
    """The +-e_i charmap of cross4: vertex i is e_i, vertex i+4 is -e_i."""
    unit = identity(4)
    return unit + [[-x for x in row] for row in unit]


def _write(path: str, obj: Dict[str, Any]) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


def _charmap_doc(vectors: Sequence[Sequence[int]]) -> Dict[str, Any]:
    return {"kind": "charmap", "rank": len(vectors[0]), "vectors": [list(v) for v in vectors]}


# -- passes --------------------------------------------------------------------


def search_pass(d47_base: Sequence[int], barnette_base: Sequence[int]) -> List[Call]:
    """D4(7) B=2 all-positive, D4(7) B=1 unimodular, Barnette B=1 all-positive."""
    calls = []
    for fixture, bound, goal, vertex in (
        ("d47", 2, "all-positive", d47_base),
        ("d47", 1, "unimodular", d47_base),
        ("barnette", 1, "all-positive", barnette_base),
    ):
        base = ",".join(str(x) for x in vertex)
        argv = [
            "search", f"fixtures:{fixture}", "--bound", str(bound), "--goal", goal,
            "--base-vertex", base, "--max-printed", "100000",
        ]
        calls.append(Call(
            f"search.{fixture}.b{bound}.{goal}", argv, "search",
            {"fixture": fixture, "goal": goal, "base": base},
        ))
    return calls


def fan_pass(directory: str, base: Dict[str, Any], u: List[List[int]]) -> List[Call]:
    """fan-check on Barnette, D4(7) as documents, and cross4, all under u."""
    os.makedirs(directory, exist_ok=True)
    docs = base["documents"]
    calls = []
    for case, inputs, vectors in (
        ("barnette", ["fixtures:barnette"], base["charmaps"]["barnette"]),
        ("d47", [docs["d47_polytope"], docs["d47_orientation"]], base["charmaps"]["d47"]),
        ("cross4", ["fixtures:cross4"], cross4_vectors()),
    ):
        moved = transform(u, vectors)
        path = _write(os.path.join(directory, f"{case}.json"), _charmap_doc(moved))
        calls.append(Call(
            f"fan.{case}", ["fan-check"] + inputs + [path], "fan",
            {"case": case, "vectors": moved},
        ))
    return calls


def checks_pass(directory: str, base: Dict[str, Any], u4: List[List[int]], det4: int,
                u2: List[List[int]], det2: int) -> List[Call]:
    """Every other subcommand; 4 of 17 calls rebuild the D4(7) polar."""
    os.makedirs(directory, exist_ok=True)
    cms = base["charmaps"]
    pent = _write(os.path.join(directory, "pentagon.json"), _charmap_doc(transform(u2, cms["pentagon"])))
    bar = _write(os.path.join(directory, "barnette.json"), _charmap_doc(transform(u4, cms["barnette"])))
    d47 = _write(os.path.join(directory, "d47.json"), _charmap_doc(transform(u4, cms["d47"])))
    malformed = base["documents"]["malformed"]

    def golden(key, argv, doc=None, det=None):
        return Call(f"checks.{key}", argv, "golden", {"doc": doc, "det": det})

    def signs(key, fixture, doc, det):
        return Call(f"checks.{key}", ["signs", f"fixtures:{fixture}", doc], "signs",
                    {"fixture": fixture, "det": det})

    return [
        golden("fvector", ["fvector", "fixtures:barnette"]),
        golden("hvector", ["hvector", "fixtures:cross4"]),
        golden("orient.barnette", ["orient", "fixtures:barnette"]),
        golden("orient.rp2_6", ["orient", "fixtures:rp2_6"]),
        golden("dualize", ["dualize", "fixtures:simplex4"]),
        golden("gale", ["gale", "--n", "7", "--d", "4"]),
        golden("cyclic-gen", ["cyclic-gen", "fixtures:d47"]),
        golden("check-unimodular", ["check-unimodular", "fixtures:pentagon", pent], pent, det2),
        golden("almost-complex", ["almost-complex", "fixtures:pentagon", pent], pent, det2),
        signs("signs.barnette", "barnette", bar, det4),
        golden("flip-solve.barnette", ["flip-solve", "fixtures:barnette", bar], bar, det4),
        golden("fixtures", ["fixtures"]),
        golden("malformed", ["check-unimodular", "fixtures:pentagon", malformed], malformed),
        golden("polar.d47", ["polar", "fixtures:d47"]),
        golden("orient-tuples.d47", ["orient-tuples", "fixtures:d47"]),
        signs("signs.d47", "d47", d47, det4),
        golden("flip-solve.d47", ["flip-solve", "fixtures:d47", d47], d47, det4),
    ]


def write_shared(workdir: str, base: Dict[str, Any]) -> Dict[str, Any]:
    """Write the seed-independent documents; return base with their paths."""
    os.makedirs(workdir, exist_ok=True)
    docs = {
        name: _write(os.path.join(workdir, f"{name}.json"), obj)
        for name, obj in base["documents"].items()
    }
    return dict(base, documents=docs)


def build(workload: str, seed: int, workdir: str, recorded: Dict[str, Any]) -> List[List[Call]]:
    """Generate POOL passes of `workload` from `seed`, writing their documents.

    `recorded` is golden.json: the fixture charmaps and the D4(7) polytope,
    orientation and malformed documents.
    """
    rng = random.Random(f"{workload}:{seed}")
    base = write_shared(os.path.join(workdir, "shared"), recorded)
    d47_order = rng.sample(D47_BASES, len(D47_BASES))
    barnette_order = rng.sample(BARNETTE_BASES, len(BARNETTE_BASES))
    passes = []
    for k in range(POOL):
        directory = os.path.join(workdir, workload, f"{k:02d}")
        if workload == "search":
            passes.append(search_pass(d47_order[k % len(d47_order)],
                                      barnette_order[k % len(barnette_order)]))
        elif workload == "fan":
            passes.append(fan_pass(directory, base, gl_transform(rng, 4)[0]))
        elif workload == "checks":
            u4, det4 = gl_transform(rng, 4)
            u2, det2 = gl_transform(rng, 2, steps=1)
            passes.append(checks_pass(directory, base, u4, det4, u2, det2))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return passes
