"""Byte-identity of the cyclic-polytope reports on every angle subset.

golden_cyclic.json holds, for `polar`, `orient-tuples` and `cyclic-gen` on
each of the 93 angle subsets of {0, ..., 7} with 5 to 8 elements and on
`fixtures:d47`, the sha256 of stdout, the exit code and stderr.  Re-record
it, only when a report is meant to change, from the root of a checkout:

    PYTHONPATH=src python3 tests/test_golden_cyclic.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from itertools import combinations

from qtoric.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cyclic.json")
COMMANDS = ("polar", "orient-tuples", "cyclic-gen")


def angle_subsets():
    for size in range(5, 9):
        yield from combinations(range(8), size)


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
        finally:
            os.chdir(cwd)
    return runs


def test_reports_match_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert len(golden) == 3 * 94
    assert digests() == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
