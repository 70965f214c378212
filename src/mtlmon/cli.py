"""Command-line surface.

    mtlmon monitor --trace LOG.jsonl --spec SPEC.mtl --epsilon N [...]
    mtlmon gen two-party|three-party|auction|grid|random|specs [...]

`monitor` may be omitted when the first argument is a flag. Exit codes:
0 every linearization satisfies the spec; 1 some linearization violates
it; 2 the run was truncated without finding a violation. A failure exits
with the code of its class in mtlmon/errors.py (64 usage, 65 input, 69
solver, 70 budget, 73 --emit-smt) and one `mtlmon: ...` line on stderr.
Any other exception is a bug: `main` prints its traceback on stderr and
returns 70, never 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

from . import casegen
from .computation import Event
from .errors import InputError, MonitorError, UsageError
from .parser import parse_spec
from .pipeline import (
    BOUNDARY_EXACT,
    BOUNDARY_WINDOW,
    MonitorConfig,
    MonitorReport,
    ingest,
    monitor,
)
from .semantics import Verdict
from .smt import DEFAULT_TIMEOUT


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(UsageError.exit_code)


# built once per process: parsing does not change the parser, and the
# in-process auditor calls `main` once per log
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="mtlmon", description=__doc__)
    sub = top.add_subparsers(dest="command")

    mon = sub.add_parser("monitor", parents=[], help="monitor a trace against a spec")
    mon.error = top.error  # type: ignore[assignment]
    mon.add_argument("--trace", action="append", required=True,
                     help="JSONL trace file (repeatable)")
    mon.add_argument("--spec", required=True, help="spec file in the formula grammar")
    mon.add_argument("--epsilon", type=int, required=True,
                     help="maximum clock skew (positive integer)")
    mon.add_argument("--segments", type=int, default=1)
    mon.add_argument("--length", type=int, default=None,
                     help="computation length override")
    mon.add_argument("--engine", choices=["smt", "enumerate"], default="enumerate")
    mon.add_argument("--solver-cmd", default=None,
                     help="external SMT-LIB solver command (required for --engine smt)")
    mon.add_argument("--max-verdicts", type=int, default=16)
    mon.add_argument("--branch-cap", type=int, default=64)
    mon.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT,
                     help="per-solver-query timeout in seconds")
    mon.add_argument("--boundary", choices=[BOUNDARY_EXACT, BOUNDARY_WINDOW],
                     default=BOUNDARY_EXACT)
    mon.add_argument("--format", choices=["text", "json"], default="text")
    mon.add_argument("--emit-smt", default=None, metavar="DIR",
                     help="dump each solver query into DIR")

    gen = sub.add_parser("gen", help="generate workloads and specs")
    gen.error = top.error  # type: ignore[assignment]
    gsub = gen.add_subparsers(dest="generator", required=True)

    g2 = gsub.add_parser("two-party")
    g2.add_argument("--vector", required=True, help="12-bit execution vector")
    g2.add_argument("--delta", type=int, default=500)
    g2.add_argument("--out", required=True)

    gg = gsub.add_parser("grid")
    gg.add_argument("--delta", type=int, default=500)
    gg.add_argument("--out", required=True, help="output directory for all 1024 logs")

    g3 = gsub.add_parser("three-party")
    g3.add_argument("--attempts", default="1" * 12, help="12-bit attempt mask")
    g3.add_argument("--delta", type=int, default=500)
    g3.add_argument("--out", required=True)

    ga = gsub.add_parser("auction")
    ga.add_argument("--steps", default="111",
                    help="attempt bits: bob bids, carol bids, alice declares")
    ga.add_argument("--delta", type=int, default=500)
    ga.add_argument("--out", required=True)

    gr = gsub.add_parser("random")
    gr.add_argument("--seed", type=int, required=True)
    gr.add_argument("--processes", type=int, default=3)
    gr.add_argument("--events", type=int, default=8)
    gr.add_argument("--epsilon", type=int, default=2)
    gr.add_argument("--messages", type=float, default=0.0)
    gr.add_argument("--out", required=True)

    gs = gsub.add_parser("specs")
    gs.add_argument("--delta", type=int, default=500)
    gs.add_argument("--out", required=True, help="output directory for .mtl files")
    return top


def event_to_json(e: Event) -> dict:
    return {
        "proc": e.process,
        "ts": e.local_time,
        "kind": e.kind,
        "msg": e.msg,
        "props": sorted(e.payload.props),
        "vars": dict(sorted(e.payload.variables.items())),
    }


def write_jsonl(events, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        for e in events:
            fh.write(json.dumps(event_to_json(e)) + "\n")


def _print_text_report(report: MonitorReport, out):
    verdicts = " ".join(sorted(str(v) for v in report.verdicts))
    print(f"verdicts: {verdicts}", file=out)
    for seg in report.segments:
        print(
            f"segment {seg.index} (local times {seg.lo}..{seg.hi},"
            f" {seg.event_count} events, {seg.ms:.1f} ms)",
            file=out,
        )
        for b in seg.branches:
            print(f"    {b}", file=out)
    if report.truncated:
        print("warning: result truncated; verdict set is a subset", file=out)


def _read_spec(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read spec: {exc}") from exc


def cmd_monitor(args) -> int:
    cfg = MonitorConfig(
        epsilon=args.epsilon,
        segments=args.segments,
        engine=args.engine,
        solver_command=args.solver_cmd,
        max_verdicts_per_segment=args.max_verdicts,
        branch_cap=args.branch_cap,
        timeout=args.timeout,
        length=args.length,
        boundary=args.boundary,
        emit_smt_dir=args.emit_smt,
    )
    formula = parse_spec(_read_spec(args.spec))
    report = monitor(ingest(args.trace), formula, cfg)
    if args.format == "json":
        json.dump(report.to_json(), sys.stdout, indent=2)
        print()
    else:
        _print_text_report(report, sys.stdout)
    if Verdict.BOTTOM in report.verdicts:
        return 1
    if report.truncated:
        return 2
    return 0 if report.verdicts == {Verdict.TOP} else 2


def cmd_gen(args) -> int:
    import os

    try:
        if args.generator == "two-party":
            vec = casegen.ExecutionVector.from_string(args.vector)
            events = casegen.gen_two_party_log(vec, casegen.ProtocolParams(delta=args.delta))
            write_jsonl(events, args.out)
        elif args.generator == "grid":
            # all logs are built first: a refused delta writes nothing
            params = casegen.ProtocolParams(delta=args.delta)
            logs = {
                f"two_party_{i:04d}_{vec}.jsonl": casegen.gen_two_party_log(vec, params)
                for i, vec in enumerate(casegen.enumerate_two_party_executions())
            }
            os.makedirs(args.out, exist_ok=True)
            for name, events in logs.items():
                write_jsonl(events, os.path.join(args.out, name))
            print(f"wrote 1024 logs to {args.out}")
        elif args.generator == "three-party":
            attempts = [int(ch) for ch in args.attempts]
            events = casegen.gen_three_party_log(
                attempts, casegen.ProtocolParams(delta=args.delta)
            )
            write_jsonl(events, args.out)
        elif args.generator == "auction":
            steps = [int(ch) for ch in args.steps]
            events = casegen.gen_auction_log(
                steps, casegen.ProtocolParams(delta=args.delta)
            )
            write_jsonl(events, args.out)
        elif args.generator == "random":
            comp = casegen.gen_random_computation(
                args.seed,
                processes=args.processes,
                events=args.events,
                epsilon=args.epsilon,
                message_rate=args.messages,
            )
            write_jsonl(comp.events, args.out)
        elif args.generator == "specs":
            os.makedirs(args.out, exist_ok=True)
            for name, formula in casegen.spec_library(args.delta).items():
                with open(os.path.join(args.out, f"{name}.mtl"), "w") as fh:
                    fh.write(str(formula) + "\n")
            print(f"wrote spec library to {args.out}")
    except (ValueError, OSError) as exc:  # a bad vector or an unwritable --out
        raise InputError(str(exc)) from exc
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0].startswith("-"):
        argv = ["monitor"] + argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    command = {"monitor": cmd_monitor, "gen": cmd_gen}.get(args.command)
    if command is None:
        parser.print_help()
        return UsageError.exit_code
    try:
        return command(args)
    except MonitorError as exc:
        label = f"{exc.label}: " if exc.label else ""
        print(f"mtlmon: {label}{exc}", file=sys.stderr)
        return exc.exit_code
    except Exception:
        # a bug in mtlmon: Python's own exit 1 would read as a violation
        import traceback

        traceback.print_exc()
        return MonitorError.exit_code


if __name__ == "__main__":
    sys.exit(main())
