"""Self-test of the benchmark, from the root of a source checkout:

    python3 perfbench/selftest.py

1. A short run of each workload, untraced and traced, is correct with no
   failed call.
2. Reports corrupted on purpose are counted as failures: one sign flipped,
   one search solution dropped, one witness ray moved off its cones, one
   byte of a recorded report changed.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import checks
import run
import workloads

DEFAULT_SEED = 1
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def short_runs() -> None:
    for workload in sorted(workloads.WHY):
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", trace],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert proc.returncode == 0, proc.stderr
            assert result["correct"] and result["failed"] == 0, proc.stdout[-2000:]
            print(f"short run {workload} trace={trace}: {result['attempted']} calls, 0 failed")


def _edit(outcome, change):
    code, stdout, stderr = outcome
    report = json.loads(stdout)
    change(report)
    return code, json.dumps(report), stderr


def _expect_failure(what: str, call, outcome, recorded, pkg) -> None:
    reason = checks.check(call, outcome, recorded, pkg)
    assert reason is not None, f"{what} was not detected"
    print(f"corrupted {what}: detected ({reason})")


def corruptions() -> None:
    os.chdir(ROOT)
    sys.path.insert(0, "src")
    with open(run.RECORDED, encoding="utf-8") as fh:
        recorded = json.load(fh)
    pkg = run.Package()
    workdir = os.path.join(run.WORKDIR, "selftest")
    picked = {}
    for workload, keys in (
        ("checks", ("checks.signs.d47", "checks.polar.d47")),
        ("fan", ("fan.d47",)),
        ("search", ("search.d47.b1.unimodular",)),
    ):
        for call in workloads.build(workload, DEFAULT_SEED, workdir, recorded)[0]:
            if call.key in keys:
                outcome, _ = run.run_call(pkg, call.argv)
                assert checks.check(call, outcome, recorded, pkg) is None, call.key
                picked[call.key] = (call, outcome)

    def flip_sign(report):
        report["verdict"][0]["sign"] *= -1

    def drop_solution(report):
        report["details"]["solutions"].pop()
        report["verdict"]["solutions_found"] -= 1

    def move_ray(report):
        entry = next(e for e in report["details"]["offending_pairs"] if "witness_ray" in e)
        entry["witness_ray"] = ["-" + x if not x.startswith("-") else x[1:]
                                for x in entry["witness_ray"]]

    for key, what, change in (
        ("checks.signs.d47", "sign", flip_sign),
        ("search.d47.b1.unimodular", "search solution list", drop_solution),
        ("fan.d47", "witness ray", move_ray),
    ):
        call, outcome = picked[key]
        _expect_failure(what, call, _edit(outcome, change), recorded, pkg)
    call, (code, stdout, stderr) = picked["checks.polar.d47"]
    _expect_failure("recorded report", call, (code, stdout.replace("1", "2", 1), stderr),
                    recorded, pkg)


def bare_directory() -> None:
    bare = os.path.join(HERE, "work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "checks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print(f"bare directory: exit {proc.returncode}, no result printed")


if __name__ == "__main__":
    corruptions()
    bare_directory()
    short_runs()
    print("selftest passed")
