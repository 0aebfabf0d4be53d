"""Byte-identity of the cyclic-polytope and fan-check reports.

golden_cyclic.json holds the sha256 of stdout, the exit code and stderr of
- `polar`, `orient-tuples` and `cyclic-gen` on each of the 93 angle subsets
  of {0, ..., 7} with 5 to 8 elements and on `fixtures:d47`;
- `fan-check` on the barnette, d47, pentagon, square and triangle fixtures,
  on cross4 with the +-e_i charmap, and on the Barnette and D4(7) maps each
  under three seeded GL(4,Z) transforms, so every witness ray is pinned.
Re-record it, only when a report is meant to change, from the root of a
checkout:

    PYTHONPATH=src python3 tests/test_golden_cyclic.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from itertools import combinations

from qtoric.cli import main
from qtoric.fixtures import get_fixture

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cyclic.json")
COMMANDS = ("polar", "orient-tuples", "cyclic-gen")
FAN_FIXTURES = ("barnette", "d47", "pentagon", "square", "triangle")
FAN_SEEDS = (1, 2, 3)


def angle_subsets():
    for size in range(5, 9):
        yield from combinations(range(8), size)


def gl4(seed):
    """A seeded matrix in GL(4,Z): a signed permutation, then row additions."""
    rng = random.Random(seed)
    perm = rng.sample(range(4), 4)
    u = [[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(4)] for i in range(4)]
    for _ in range(3):
        i, j = rng.sample(range(4), 2)
        u[i] = [a + rng.choice((-1, 1)) * b for a, b in zip(u[i], u[j])]
    return u


def write_charmap(path, vectors):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"kind": "charmap", "rank": 4, "vectors": vectors}, fh)
    return path


def fan_runs():
    """fan-check runs keyed by "fan-check <case>"; charmaps go to the cwd."""
    runs = {}
    for name in FAN_FIXTURES:
        runs[f"fan-check fixtures:{name}"] = run_cli(["fan-check", f"fixtures:{name}"])
    unit = [[int(i == j) for j in range(4)] for i in range(4)]
    cross = write_charmap("cross4.json", unit + [[-x for x in row] for row in unit])
    runs["fan-check cross4"] = run_cli(["fan-check", "fixtures:cross4", cross])
    for name in ("barnette", "d47"):
        vectors = get_fixture(name).charmap.vectors
        for seed in FAN_SEEDS:
            u = gl4(seed)
            moved = [[sum(a * x for a, x in zip(row, v)) for row in u] for v in vectors]
            path = write_charmap(f"{name}_gl{seed}.json", moved)
            runs[f"fan-check {name} gl{seed}"] = run_cli(["fan-check", f"fixtures:{name}", path])
    return runs


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return {"stdout_sha256": digest, "exit": code, "stderr": err.getvalue()}


def digests():
    """Every run keyed by "<command> <input>"; documents are read from a
    fixed relative path, which the reports name in their provenance."""
    runs = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for ks in angle_subsets():
                with open("angles.json", "w", encoding="utf-8") as fh:
                    json.dump({"kind": "angles", "eighth_turns": list(ks)}, fh)
                for command in COMMANDS:
                    key = f"{command} {''.join(map(str, ks))}"
                    runs[key] = run_cli([command, "angles.json"])
            for command in COMMANDS:
                runs[f"{command} fixtures:d47"] = run_cli([command, "fixtures:d47"])
            runs.update(fan_runs())
        finally:
            os.chdir(cwd)
    return runs


def test_reports_match_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert len(golden) == 3 * 94 + len(FAN_FIXTURES) + 1 + 2 * len(FAN_SEEDS)
    assert digests() == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
