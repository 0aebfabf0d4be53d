"""The qtoric benchmark: one closed-loop client driving ``qtoric.cli.main``.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {search,fan,checks} --seed N \
        --seconds S --trace {0,1}

One process, no threads.  The client sends the next command only when the
previous one has returned, the way a CLI user waits for each report.  A run
sets up (import, input generation, document writing, one warm-up command)
several times and reports the median, then repeats whole passes of the
workload's command list until S seconds have passed and at least
MIN_CALLS calls are made.  Every report is checked after the timed region.
Each timing is scaled to a reference host speed by a calibration kernel
run between calls (calibrate.py); the raw figures are printed as well.

--trace 0 prints the end-to-end metrics.  --trace 1 wraps the package's
functions (tracer.py), runs the passes traced, replays the same passes
untraced for the overhead ratio and the exact-count comparison, writes the
spans under perfbench/work/trace/ and prints the per-layer metrics, whose
times are raw span times.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 when a result is printed, 2 when the package
source is missing.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import calibrate
import checks
import workloads
from tracer import Tracer

SETUP_REPEATS = 5
# the tail is the sample with ten samples beyond it, so a run needs eleven
MIN_CALLS = 11
WORKDIR = os.path.join("perfbench", "work")
RECORDED = os.path.join("perfbench", "golden.json")
# exact counts printed per call of the first traced pass
TRACE_COUNTS = (
    "charsearch.search.nodes", "exactnum.det_int.calls",
    "fanchk.cones_overlap_interior.calls", "fanchk.cones_overlap_interior.overlaps",
    "exactnum.sqrt2.ops",
)


class Package:
    """The freshly imported qtoric modules the run and its checks use."""

    def __init__(self) -> None:
        for name in [n for n in sys.modules if n == "qtoric" or n.startswith("qtoric.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("qtoric.cli")
        self.fanchk = sys.modules["qtoric.fanchk"]
        self.charmap = sys.modules["qtoric.charmap"]
        self.fixtures = sys.modules["qtoric.fixtures"]

    def structure(self, fixture: str):
        if fixture == "d47":
            return self.fixtures.d47_polar().polytope
        return self.fixtures.get_fixture(fixture).complex


def run_call(pkg: Package, argv: List[str]) -> Tuple[Tuple[Any, str, str], float]:
    """One cli.main call with captured output; returns (outcome, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = pkg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed call, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
    return (code, out.getvalue(), err.getvalue()), dt


def setup(workload: str, seed: int, recorded) -> Tuple[Package, List[List[workloads.Call]], float]:
    """Import, generate and write the inputs, warm up; returns the scaled time."""
    before = calibrate.probe()
    t0 = perf_counter()
    pkg = Package()
    passes = workloads.build(workload, seed, WORKDIR, recorded)
    run_call(pkg, ["fixtures"])
    seconds = perf_counter() - t0
    return pkg, passes, calibrate.scale(seconds, before, calibrate.probe())


def run_passes(pkg, passes, seconds: float, count_passes: Optional[int] = None,
               counters: Optional[Dict[str, int]] = None):
    """Whole passes until `seconds` and MIN_CALLS are reached (or exactly
    `count_passes` passes).  Returns the records and the number of passes.

    A record is (call, outcome, raw seconds, scaled seconds, counter deltas);
    the deltas are None unless `counters` is given.
    """
    records = []
    k = 0
    t0 = perf_counter()
    probe = calibrate.probe()
    while True:
        for call in passes[k % len(passes)]:
            before = dict(counters) if counters is not None else None
            outcome, dt = run_call(pkg, call.argv)
            delta = ({key: counters[key] - before.get(key, 0) for key in counters}
                     if counters is not None else None)
            after = calibrate.probe()
            records.append((call, outcome, dt, calibrate.scale(dt, probe, after), delta))
            probe = after
        k += 1
        if count_passes is not None:
            if k == count_passes:
                return records, k
        elif perf_counter() - t0 >= seconds and len(records) >= MIN_CALLS:
            return records, k


def check_records(records, recorded, pkg) -> List[Tuple[str, str]]:
    failures = []
    for call, outcome, _, _, _ in records:
        reason = checks.check(call, outcome, recorded, pkg)
        if reason is not None:
            failures.append((call.key, reason))
    return failures


def tail(latencies: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile): the eleventh-largest sample, which is the
    percentile 100 * (n - 10) / n.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(records, setup_times, failures) -> Tuple[Dict[str, Any], str]:
    """The end-to-end metrics from scaled times, and a note with the raw ones."""
    raw = [dt for _, _, dt, _, _ in records]
    scaled = [dt for _, _, _, dt, _ in records]
    attempted = len(records)
    tail_s, tail_pct = tail(scaled)
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        # a closed loop with one client: calls over the time spent in them
        "commands_per_s": metric(attempted / sum(scaled), "1/s"),
        "latency_p50_ms": metric(1000 * statistics.median(scaled), "ms"),
        "latency_tail_ms": metric(1000 * tail_s, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": metric((attempted - len(failures)) / attempted, "ratio"),
    }
    note = (f"latency_tail_ms is p{tail_pct:.2f} of {attempted} calls (10 beyond it); "
            f"failed_ratio {len(failures)}/{attempted}; "
            f"scaled setup runs {', '.join(f'{t:.4f}' for t in setup_times)} s; "
            f"raw: commands_per_s {attempted / sum(raw):.4f}, "
            f"latency_p50_ms {1000 * statistics.median(raw):.3f}, "
            f"latency_tail_ms {1000 * tail(raw)[0]:.3f}")
    return metrics, note


def per_layer(tracer: Tracer, traced_s: float, untraced_s: float) -> Dict[str, Any]:
    times = tracer.layer_times()
    c = tracer.counters

    def t(layer, stat):
        return times[layer][stat] if layer in times else 0

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = metric(value, unit)

    for layer, stats in (
        ("exactnum.det_int", ("calls", "self_s")),
        ("exactnum.strict_feasibility", ("calls", "self_s")),
        ("exactnum.solve_linear", ("self_s",)),
        ("exactnum.det_field", ("self_s",)),
        ("exactnum.gf2_solve", ("calls", "self_s")),
        ("charsearch.search", ("calls", "busy_s", "self_s")),
        ("fanchk.fan_properness", ("busy_s", "self_s")),
        ("fanchk.cones_overlap_interior", ("calls", "busy_s")),
        ("cyclic.build_polar", ("calls", "busy_s", "self_s")),
        ("cyclic.contains_origin_interior", ("busy_s",)),
        ("cyclic.vertex_orientation_tuples", ("busy_s",)),
        ("charmap.sign_pattern", ("busy_s",)),
        ("charmap.flip_system", ("busy_s",)),
        ("charmap.unimodularity_check", ("busy_s",)),
        ("complexes.coherent_orientation", ("busy_s",)),
        ("complexes.pseudomanifold_check", ("busy_s",)),
        ("complexes.dualize", ("busy_s",)),
        ("documents.parse_document", ("calls", "busy_s")),
        ("documents.canonical_json", ("calls", "busy_s")),
        ("cli.main", ("calls", "busy_s", "self_s")),
        ("cli.build_parser", ("busy_s",)),
    ):
        for stat in stats:
            put(f"{layer}.{stat}", t(layer, stat), "count" if stat == "calls" else "s")
    nodes = c["charsearch.search.nodes"]
    overlaps = c["fanchk.cones_overlap_interior.overlaps"]
    put("exactnum.sqrt2.ops", c["exactnum.sqrt2.ops"], "count")
    put("charsearch.search.nodes", nodes, "count")
    put("charsearch.search.solutions", c["charsearch.search.solutions"], "count")
    put("charsearch.nodes_per_s", ratio(nodes, t("charsearch.search", "busy_s")), "1/s")
    put("charsearch.det_per_node", ratio(t("exactnum.det_int", "calls"), nodes), "ratio")
    put("fanchk.cones_overlap_interior.overlaps", overlaps, "count")
    put("fanchk.overlap_ratio", ratio(overlaps, t("fanchk.cones_overlap_interior", "calls")), "ratio")
    put("documents.parse_document.bytes", c["documents.parse_document.bytes"], "bytes")
    put("documents.canonical_json.bytes", c["documents.canonical_json.bytes"], "bytes")
    put("trace.trace_overhead_ratio", ratio(traced_s, untraced_s), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "qtoric", "cli.py")):
        sys.stderr.write(f"error: no qtoric source under {os.path.join(root, 'src')}\n")
        return 2
    os.chdir(root)
    sys.path.insert(0, "src")
    with open(RECORDED, encoding="utf-8") as fh:
        recorded = json.load(fh)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        pkg, passes, seconds = setup(args.workload, args.seed, recorded)
        setup_times.append(seconds)

    if not args.trace:
        records, _ = run_passes(pkg, passes, args.seconds)
        failures = check_records(records, recorded, pkg)
        metrics, note = end_to_end(records, setup_times, failures)
        summary(records, passes, failures, note)
        print(json.dumps({
            "correct": not failures,
            "attempted": len(records),
            "failed": len(failures),
            "metrics": metrics,
        }, sort_keys=True))
        return 0

    tracer = Tracer()
    tracer.install()
    try:
        traced, npasses = run_passes(pkg, passes, args.seconds, counters=tracer.counters)
    finally:
        tracer.uninstall()
    first_pass = len(passes[0])
    replay, _ = run_passes(pkg, passes, args.seconds, count_passes=npasses)
    failures = check_records(traced + replay, recorded, pkg)
    failures += count_mismatches(traced, replay)
    traced_s = sum(dt for _, _, _, dt, _ in traced)
    untraced_s = sum(dt for _, _, _, dt, _ in replay)
    metrics = per_layer(tracer, traced_s, untraced_s)
    tracer.write(os.path.join(WORKDIR, "trace", args.workload))
    sqrt2_first = sum(d.get("exactnum.sqrt2.ops", 0) for _, _, _, _, d in traced[:first_pass])
    summary(traced, passes, failures, f"{npasses} passes traced and replayed; "
            f"exactnum.sqrt2.ops in the first pass {sqrt2_first}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(traced) + len(replay),
        "failed": len(failures),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


def count_mismatches(traced, replay) -> List[Tuple[str, str]]:
    """Exact counts must agree between the trace, its reports and the replay."""
    out = []
    for (call, outcome, _, _, delta), (_, again, _, _, _) in zip(traced, replay):
        counts = checks.report_counts(call, outcome)
        if counts != checks.report_counts(call, again):
            out.append((call.key, "traced and untraced reports state different counts"))
        if "nodes" in counts and counts["nodes"] != delta.get("charsearch.search.nodes", 0):
            out.append((call.key, "trace node count differs from nodes_explored"))
        if "overlaps" in counts and counts["overlaps"] != delta.get(
                "fanchk.cones_overlap_interior.overlaps", 0):
            out.append((call.key, "trace overlap count differs from the report"))
    return out


def summary(records, passes, failures, note: str) -> None:
    """Human-readable lines before the result: per-command latency and counts."""
    by_key: Dict[str, List[Tuple[float, float]]] = {}
    for call, _, raw, scaled, _ in records:
        by_key.setdefault(call.key, []).append((raw, scaled))
    for key, times in sorted(by_key.items()):
        print(f"{key:32s} n={len(times):5d} "
              f"median_ms raw={1000 * statistics.median(t for t, _ in times):10.3f} "
              f"scaled={1000 * statistics.median(t for _, t in times):10.3f}")
    for call, outcome, _, _, delta in records[:len(passes[0])]:
        counts = checks.report_counts(call, outcome)
        if delta is not None:
            counts.update((k, delta[k]) for k in TRACE_COUNTS if delta.get(k))
        if counts:
            print(f"first pass {call.key} {call.argv[-1]}: {json.dumps(counts)}")
    for key, reason in failures[:20]:
        print(f"FAILED {key}: {reason}")
    print(note)


if __name__ == "__main__":
    sys.exit(main())
