"""The CLI cases: argv lists, the documents they read (an argv names one as
`{name}`) and the exit code each should give; tests/test_cli.py checks the
exit codes in process.  From a checkout, after `pip install .`,

    python tests/cli_cases.py

runs every case through the installed `qtoric`, with PYTHONPATH unset, and
through `python -m qtoric.cli` on `src/`, names each case whose exit code,
stdout or stderr differ, and exits 1 if any does.
"""

import json
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_UNIT = [[int(i == j) for j in range(4)] for i in range(4)]
DOCUMENTS = {
    "cross4": {"kind": "charmap", "rank": 4, "vectors": _UNIT + [[-x for x in r] for r in _UNIT]},
    # e1, e2, e1, -e2: two adjacent pairs that share no ridge, then two overlaps
    "square": {"kind": "charmap", "rank": 2, "vectors": [[1, 0], [0, 1], [1, 0], [0, -1]]},
    # cell {1, 4} has det 2 over its sorted carriers and -2 over its tuple (4, 1)
    "square2": {"kind": "charmap", "rank": 2, "vectors": [[1, 0], [0, 1], [-1, 1], [-1, 2]]},
    "angles": {"kind": "angles", "eighth_turns": [0, 1, 2, 3, 4, 5, 7]},
    # Barnette's map with three vectors negated
    "barnette": {"kind": "charmap", "rank": 4, "vectors": [
        [1, 0, 0, 0], [0, -1, 1, -2], [0, 1, 0, 0], [0, 0, 1, -1],
        [0, 0, -1, 0], [1, -1, 0, -1], [0, 0, 0, -1], [1, 0, 0, -1],
    ]},
    "config": {"kind": "search_config", "bound": 1, "base_vertex": [1, 2],
               "goal": "all_positive", "order": [3], "solution_cap": 1},
    # two faults; the error names goal, the one read first
    "two_faults": {"kind": "search_config", "bound": "1", "base_vertex": [1, 2],
                   "goal": "sideways"},
    # a path of two edges, so not a pseudomanifold
    "path": {"kind": "simplicial_complex", "num_vertices": 3, "facets": [[1, 2], [2, 3]]},
    # the triangle's cell {1, 2} has det 0
    "det0": {"kind": "charmap", "rank": 2, "vectors": [[1, 0], [1, 0], [0, 1]]},
}

CASES = [
    ("fixtures", 0), ("fvector fixtures:barnette", 0), ("polar fixtures:d47", 0),
    ("orient-tuples fixtures:d47", 0), ("cyclic-gen fixtures:d47", 0),
    ("search fixtures:triangle --bound 1 --goal all-positive --base-vertex 1,2", 0),
    ("search fixtures:d47 --bound 1 --goal unimodular --base-vertex 2,1,3,7 --max-printed 1000", 0),
    ("search fixtures:d47 --bound 1 --goal all-positive --base-vertex 2,1,3,7", 0),
    ("orient fixtures:barnette", 0), ("orient fixtures:rp2_6", 1), ("orient {path}", 1),
    ("hvector fixtures:cross4", 0), ("dualize fixtures:simplex4", 0), ("gale --n 7 --d 4", 0),
    # fan-check on d47 reaches the LP through a polytope with an orientation
    ("fan-check fixtures:barnette", 1), ("fan-check fixtures:d47", 1),
    ("fan-check fixtures:pentagon", 0), ("fan-check fixtures:cross4 {cross4}", 0),
    ("fan-check fixtures:square {square}", 1),
    # signs stops at cell (4, 1) with its tuple-order det -2; check-unimodular
    # reports vertex 14 with its increasing-order det 2
    ("signs fixtures:square {square2}", 2), ("check-unimodular fixtures:square {square2}", 1),
    ("signs fixtures:d47", 1), ("flip-solve fixtures:barnette", 1), ("flip-solve fixtures:d47", 1),
    ("flip-solve fixtures:pentagon", 0), ("check-unimodular fixtures:pentagon", 0),
    # a map document, then none: inputs leaked from the first call into the
    # next would make the plain call fail too
    ("check-unimodular fixtures:triangle {det0}", 1), ("check-unimodular fixtures:triangle", 0),
    ("almost-complex fixtures:pentagon", 0),
    ("polar {angles}", 0), ("cyclic-gen {angles}", 0), ("orient-tuples {angles}", 0),
    # the map document replaces the fixture's own map
    ("signs fixtures:barnette {barnette}", 1), ("flip-solve fixtures:barnette {barnette}", 1),
    ("fan-check fixtures:barnette {barnette}", 1),
    # the five document kinds other than search_config, and the two other
    # polygons built like the pentagon
    ("fixtures pentagon", 0), ("fixtures d47", 0), ("fixtures barnette", 0),
    ("fixtures triangle", 0), ("fixtures square", 0),
    ("search fixtures:triangle {config}", 0), ("search fixtures:triangle {two_faults}", 2),
    # a command that needs inputs, given none
    ("fvector", 2),
    # argparse's error and help bytes, from the top-level parser and from a
    # subcommand's own
    ("gale --n 7 --bogus", 2), ("nosuchcommand", 2), ("--help", 0),
    ("search fixtures:triangle --goal sideways", 2),
]


def argv(case, directory):
    """The case's argv, each `{name}` read as `<directory>/<name>.json`."""
    paths = {name: os.path.join(directory, f"{name}.json") for name in DOCUMENTS}
    return [token.format_map(paths) for token in case.split()]


def write_documents(directory):
    for name, document in DOCUMENTS.items():
        with open(os.path.join(directory, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(document, fh)


def differences(script, cases, directory):
    """The cases whose exit code, stdout or stderr differ between the
    command `script`, run with PYTHONPATH unset, and `python -m qtoric.cli`
    on src/; the documents must be in `directory`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    sides = [(script, env), ([sys.executable, "-m", "qtoric.cli"], {**env, "PYTHONPATH": SRC})]
    differ = []
    for case in cases:
        runs = [
            subprocess.run(command + argv(case, directory), capture_output=True, env=e)
            for command, e in sides
        ]
        if len({(p.returncode, p.stdout, p.stderr) for p in runs}) > 1:
            differ.append(case)
    return differ


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_documents(tmp)
        differ = differences(["qtoric"], [case for case, _ in CASES], tmp)
    for case in differ:
        print(f"qtoric {case}: exit code, stdout or stderr differ from python -m qtoric.cli")
    print(f"{len(CASES) - len(differ)} of {len(CASES)} cases match")
    sys.exit(1 if differ else 0)
