#!/usr/bin/env python3
"""mtlmon benchmark: verdict latency and throughput on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; the program is imported from
src/. One process runs a closed loop, one call at a time: `monitor` or the
in-process CLI, with the bundled `mtlmon-solver` as the only child process.
The inputs of a workload are a fixed corpus; --seed draws the order in
which each pass visits it. A run calls the inputs pass after pass until
--seconds have passed and every input has been called, and checks every
call against a pinned reference.

--trace 0 prints the end-to-end metrics; --trace 1 makes one untraced and
one traced pass and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFS = os.path.join(HERE, "refs")

SETUP_REPEATS = 3  # set-up is repeated and its median reported

END_TO_END = {  # name -> unit, as printed in the result line
    "setup_s": "s",
    "logs_per_s": "1/s",
    "verdict_s_p50": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "match_frac": "ratio",
    "complete_frac": "ratio",
}
PER_LAYER = {  # grouped by layer; every `_s` metric is self time
    "cli.self_s": "s",
    "parser.parse_s": "s",
    "pipeline.ingest_s": "s",
    "pipeline.boundaries_s": "s",
    "pipeline.self_s": "s",
    "pipeline.segments": "count",
    "pipeline.branches_peak": "count",
    "computation.build_s": "s",
    "computation.build_calls": "count",
    "computation.restrict_s": "s",
    "computation.hb_pairs": "count",
    "oracle.enumerate_s": "s",
    "oracle.linearizations": "count",
    "oracle.useful_ratio": "ratio",
    "progression.progress_s": "s",
    "progression.calls": "count",
    "formula.shift_s": "s",
    "formula.simplify_s": "s",
    "smt.self_s": "s",
    "smt.encode_s": "s",
    "smt.problem_bytes": "bytes",
    "smt.queries": "count",
    "smt.query_bytes": "bytes",
    "smt.solver_s": "s",
    "smt.spawn_s": "s",
    "refsolver.solve_s": "s",
    "smt.decode_s": "s",
    "smt.replay_s": "s",
    "smt.useful_ratio": "ratio",
    "cli.errors": "count",
    "parser.errors": "count",
    "pipeline.errors": "count",
    "computation.errors": "count",
    "oracle.errors": "count",
    "progression.errors": "count",
    "formula.errors": "count",
    "smt.errors": "count",
    "trace.overhead_s": "s",
}


def import_program():
    """Import mtlmon from this checkout's src/, and let the solver child
    (`python -m mtlmon.refsolver`) import it the same way."""
    if not os.path.isfile(os.path.join(SRC, "mtlmon", "__init__.py")):
        raise SystemExit(f"perfbench: no mtlmon sources under {SRC}")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    global mtlmon_smt, spans, workloads
    import mtlmon.smt as mtlmon_smt

    sys.path.insert(0, HERE)
    import spans
    import workloads

    if not os.path.abspath(mtlmon_smt.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: mtlmon imported from {mtlmon_smt.__file__}, not {SRC}")


def setup(name: str, size: str, work_dir: str):
    """Load the pinned references and generate the inputs."""
    with open(os.path.join(REFS, f"{name}.json"), encoding="utf-8") as fh:
        refs = json.load(fh)[size]
    return workloads.build(name, size, work_dir, mtlmon_smt.bundled_solver_command(), refs)


def fresh_work_dir() -> str:
    """A new directory per set-up, removed when the run ends."""
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    return tempfile.mkdtemp(dir=os.path.join(OUT, "work"))


def call(inp, tracer=None):
    """One call; returns (seconds, outcome or None, error class or None)."""
    span = "cli.main" if inp.kind == "cli" else "pipeline.monitor"
    t0 = time.perf_counter()
    try:
        result = tracer.span(span, inp.fn, *inp.args) if tracer else inp.fn(*inp.args)
    except Exception as exc:  # one bad input never aborts a run
        return time.perf_counter() - t0, None, type(exc).__name__
    seconds = time.perf_counter() - t0
    if inp.kind == "cli":
        try:
            outcome = workloads.cli_outcome(result)
        except (ValueError, KeyError, TypeError):  # stdout is not the JSON report
            return seconds, None, "UnreadableOutput"
        if outcome["exit"] in workloads.CLI_FAILURE_CODES:
            return seconds, None, f"exit{outcome['exit']}"
    else:
        outcome = workloads.report_outcome(result)
    return seconds, outcome, None


class Tally:
    def __init__(self):
        self.seconds = []
        self.by_input = {}  # key -> call times
        self.failed = self.mismatched = self.truncated = 0
        self.errors = {}
        self.segments = self.branches_peak = 0

    def add(self, key, seconds, outcome, error, refs):
        self.seconds.append(seconds)
        self.by_input.setdefault(key, []).append(seconds)
        if error is not None:
            self.failed += 1
            self.errors[error] = self.errors.get(error, 0) + 1
            print(f"failed: {key}: {error}", file=sys.stderr)
            return
        expected = refs.get(key, "missing reference")
        if not workloads.matches(outcome, expected):
            self.mismatched += 1
            print(f"mismatch: {key}: got {outcome}, expected {expected}", file=sys.stderr)
        self.truncated += bool(outcome["truncated"])
        self.segments += len(outcome["shape"])
        self.branches_peak = max([self.branches_peak] + outcome["shape"])


def run_pass(wl, order, tally, tracer=None) -> float:
    t0 = time.perf_counter()
    for i in order:
        inp = wl.inputs[i]
        if tracer:
            tracer.call_id += 1
        seconds, outcome, error = call(inp, tracer)
        tally.add(inp.key, seconds, outcome, error, wl.refs)
    return time.perf_counter() - t0


def measure(wl, rng, seconds: float):
    """Call the inputs pass after pass, each pass in a new seeded order,
    until `seconds` have passed and every input has been called."""
    tally, order = Tally(), []
    t0 = time.perf_counter()
    while len(tally.by_input) < len(wl.inputs) or time.perf_counter() - t0 < seconds:
        if not order:
            order = list(range(len(wl.inputs)))
            rng.shuffle(order)
        inp = wl.inputs[order.pop()]
        tally.add(inp.key, *call(inp), wl.refs)
    return tally, time.perf_counter() - t0


def print_metric(name, value, unit, note=""):
    print(f"  {name:26s} {value:14.6g} {unit}{note}")


def result(correct, tallies, metrics, units) -> dict:
    return {
        "correct": correct,
        "attempted": sum(len(t.seconds) for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def run_untraced(wl, rng, seconds, setup_s) -> dict:
    tally, elapsed = measure(wl, rng, seconds)
    n, ok = len(tally.seconds), len(tally.seconds) - tally.failed
    per_input = tally.by_input.values()
    metrics = {
        "setup_s": setup_s,
        # inputs per pass over the mean pass time, so that the inputs a
        # partial last pass happens to reach do not weigh more than others
        "logs_per_s": len(per_input) / sum(statistics.fmean(v) for v in per_input),
        # the median over inputs of each input's median call time, so that
        # every input weighs the same and one slow call of an input does not
        "verdict_s_p50": statistics.median(statistics.median(v) for v in per_input),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": ok / n,
        "match_frac": (ok - tally.mismatched) / ok if ok else 0.0,
        "complete_frac": (ok - tally.truncated) / ok if ok else 0.0,
    }
    print(f"end-to-end: {n} calls of {len(per_input)} inputs in {elapsed:.3f} s")
    for key, unit in END_TO_END.items():
        print_metric(key, metrics[key], unit)
    if n >= 100:
        print_metric("verdict_s_p90", statistics.quantiles(tally.seconds, n=10)[-1], "s")
    else:
        print(f"  verdict_s_p90              not reported: {n} calls, fewer than 100")
    print_metric("failed_frac", tally.failed / n, "ratio")
    print_metric("mismatch_frac", 1 - metrics["match_frac"], "ratio")
    print_metric("truncated_frac", 1 - metrics["complete_frac"], "ratio")
    if tally.errors:
        print(f"  errors by class: {tally.errors}")
    return result(tally.failed == 0 and tally.mismatched == 0, [tally], metrics, END_TO_END)


def run_traced(wl, rng) -> dict:
    """One untraced pass, then one traced pass over the same order."""
    order = list(range(len(wl.inputs)))
    rng.shuffle(order)
    plain, tally, tracer = Tally(), Tally(), spans.Tracer()
    untraced_s = run_pass(wl, order, plain)
    tracer.install()
    try:
        traced_s = run_pass(wl, order, tally, tracer)
    finally:
        tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{wl.name}.jsonl"))
    solve_s, status_mismatches = spans.resolve_queries(tracer.queries)
    m = tracer.metrics()
    m["pipeline.segments"] = tally.segments
    m["pipeline.branches_peak"] = tally.branches_peak
    m["refsolver.solve_s"] = solve_s
    m["smt.spawn_s"] = m["smt.solver_s"] - solve_s
    m["trace.overhead_s"] = traced_s - untraced_s

    call_s = sum(tally.seconds)
    print(f"traced: {len(tally.seconds)} calls; untraced pass {untraced_s:.3f} s,"
          f" traced pass {traced_s:.3f} s, overhead {traced_s - untraced_s:+.3f} s"
          f" ({(traced_s - untraced_s) / untraced_s:+.1%})")
    for key, unit in PER_LAYER.items():
        layer_time = unit == "s" and key != "trace.overhead_s"
        print_metric(key, m[key], unit, f"  {m[key] / call_s:6.1%} of call time" if layer_time else "")
    if tracer.errors:
        print(f"  errors by layer and class: {dict(tracer.errors)}")
    if tracer.queries:
        print(f"  solver queries re-solved in-process: {len(tracer.queries)},"
              f" {status_mismatches} statuses differ from the subprocess answer")
    correct = status_mismatches == 0 and all(
        t.failed == 0 and t.mismatched == 0 for t in (plain, tally))
    return result(correct, [plain, tally], m, PER_LAYER)


def run(name, seed, seconds, trace_on, quick=False) -> dict:
    size = "quick" if quick else "full"
    t0 = time.perf_counter()
    import_program()
    import_s = time.perf_counter() - t0
    setup_times, work_dirs = [], []
    try:
        for _ in range(1 if quick else SETUP_REPEATS):
            work_dirs.append(fresh_work_dir())
            t0 = time.perf_counter()
            wl = setup(name, size, work_dirs[-1])
            setup_times.append(time.perf_counter() - t0)
            # untimed: creating files on the host's file system is far
            # noisier than the generation that set-up time is meant to show
            wl.write_files()
        print(f"workload {name}: {len(wl.inputs)} inputs, seed {seed}, size {size}")
        print(f"checks: {wl.checks}")
        rng = random.Random(seed)
        if trace_on:
            return run_traced(wl, rng)
        return run_untraced(wl, rng, seconds, import_s + statistics.median(setup_times))
    finally:
        for d in work_dirs:
            shutil.rmtree(d, ignore_errors=True)


def self_check() -> int:
    """Every workload at a tiny size, untraced and traced: every metric of
    BENCHMARK.json is printed with its unit, and nothing mismatches."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for wl in spec["workloads"]:
        for trace_on, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run(wl["name"], 0, 0, trace_on, quick=True)
            print(json.dumps(result))
            got = result["metrics"]
            for m in listed:
                if got.get(m["name"], {}).get("unit") != m["unit"]:
                    problems.append(f"{wl['name']} trace {trace_on}: {m['name']} missing or not in {m['unit']}")
            if not result["correct"] or got.get("match_frac", {"value": 1.0})["value"] != 1.0:
                problems.append(f"{wl['name']} trace {trace_on}: mismatches")
            if result["failed"]:
                problems.append(f"{wl['name']} trace {trace_on}: {result['failed']} failed calls")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["skew-random", "swap-audit", "smt-corpus", "long-log"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload at a tiny size and check the output contract")
    args = ap.parse_args(argv)
    if args.self_check:
        return self_check()
    if not args.workload:
        ap.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
