"""Byte-identity of the cyclic-polytope and fan-check reports.

golden_cyclic.json holds the sha256 of stdout, the exit code and stderr of
- `polar`, `orient-tuples` and `cyclic-gen` on each of the 93 angle subsets
  of {0, ..., 7} with 5 to 8 elements and on `fixtures:d47`;
- `fan-check` on the barnette, d47, pentagon, square and triangle fixtures,
  on cross4 with the +-e_i charmap, on the square with the map e1, e2, e1,
  -e2 (two adjacent pairs that share no ridge, then two overlaps), and on
  the Barnette and D4(7) maps each under three seeded GL(4,Z) transforms,
  so every witness ray is pinned;
- `signs`, `almost-complex`, `flip-solve`, `check-unimodular` and
  `fan-check` on the square with the map (1,0), (0,1), (-1,1), (-1,2),
  whose cell {1, 4} has det 2 over its sorted carriers and -2 over its
  oriented tuple (4, 1), so the sign of each error message is pinned;
- `fixtures` on each of the eight built-in fixtures.
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
from qtoric.cyclic import polar_of_angles
from qtoric.fixtures import FIXTURE_NAMES, get_fixture

import cli_cases

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cyclic.json")
COMMANDS = ("polar", "orient-tuples", "cyclic-gen")
FAN_FIXTURES = ("barnette", "d47", "pentagon", "square", "triangle")
FAN_SEEDS = (1, 2, 3)
SQUARE2_COMMANDS = ("signs", "almost-complex", "flip-solve", "check-unimodular", "fan-check")


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


def fan_runs():
    """fan-check runs keyed by "fan-check <case>"; the documents of
    cli_cases are read from the cwd, and the moved charmaps go there."""
    runs = {}
    for name in FAN_FIXTURES:
        runs[f"fan-check fixtures:{name}"] = run_cli(["fan-check", f"fixtures:{name}"])
    runs["fan-check cross4"] = run_cli(cli_cases.argv("fan-check fixtures:cross4 {cross4}", ""))
    runs["fan-check square ridges"] = run_cli(
        cli_cases.argv("fan-check fixtures:square {square}", "")
    )
    for name in ("barnette", "d47"):
        vectors = get_fixture(name).charmap.vectors
        for seed in FAN_SEEDS:
            u = gl4(seed)
            moved = [[sum(a * x for a, x in zip(row, v)) for row in u] for v in vectors]
            path = f"{name}_gl{seed}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"kind": "charmap", "rank": 4, "vectors": moved}, fh)
            runs[f"fan-check {name} gl{seed}"] = run_cli(["fan-check", f"fixtures:{name}", path])
    return runs


def square2_runs():
    """Runs keyed by "<command> square2" on the square with a map that is
    not unimodular at the vertex whose tuple is not in increasing order."""
    return {
        f"{command} square2": run_cli(cli_cases.argv(f"{command} fixtures:square {{square2}}", ""))
        for command in SQUARE2_COMMANDS
    }


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
            cli_cases.write_documents("")
            for ks in angle_subsets():
                with open("angles.json", "w", encoding="utf-8") as fh:
                    json.dump({"kind": "angles", "eighth_turns": list(ks)}, fh)
                for command in COMMANDS:
                    key = f"{command} {''.join(map(str, ks))}"
                    runs[key] = run_cli([command, "angles.json"])
            for command in COMMANDS:
                runs[f"{command} fixtures:d47"] = run_cli([command, "fixtures:d47"])
            runs.update(fan_runs())
            runs.update(square2_runs())
            for name in FIXTURE_NAMES:
                runs[f"fixtures {name}"] = run_cli(["fixtures", name])
        finally:
            os.chdir(cwd)
    return runs


def test_reports_match_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert len(golden) == (
        3 * 94 + len(FAN_FIXTURES) + 2 + 2 * len(FAN_SEEDS) + len(SQUARE2_COMMANDS)
        + len(FIXTURE_NAMES)
    )
    assert digests() == golden
    # only the angle subsets that yield a polar are cached, each once
    assert polar_of_angles.cache_info().currsize <= 93


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
