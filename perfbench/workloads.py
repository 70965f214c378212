"""The four benchmark workloads: input generation and references.

Each workload builds a fixed list of inputs, whose references are pinned
under refs/. Building inputs is set-up work: it includes every casegen
call. A call returns an outcome dict: the verdict set, a digest of the
segment branch strings, the truncated flag and, on the CLI path, the exit
code and JSON key check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from mtlmon import casegen, cli
from mtlmon.computation import Computation, Event, build_computation
from mtlmon.formula import (
    And, Atom, Eventually, Formula, Globally, Implies, Interval, Not, Or, Until,
    max_nesting, simplify,
)
from mtlmon.oracle import OracleBudgetError, enumerate_linearizations, oracle_progress
from mtlmon.parser import parse_spec
from mtlmon.pipeline import MonitorConfig, monitor
from mtlmon.semantics import State, finalize, formula_verdict

REPORT_KEYS = ["segments", "truncated", "verdicts"]
SEGMENT_KEYS = ["branches", "events", "index", "ms", "range"]
CLI_FAILURE_CODES = (64, 65, 70)


@dataclass
class Input:
    key: str
    kind: str  # "monitor": fn(events, formula, cfg); "cli": fn(argv)
    fn: Callable
    args: tuple


@dataclass
class Workload:
    name: str
    inputs: List[Input]
    refs: Dict[str, str]  # key -> ref_string of the expected outcome
    checks: str  # which checks ran, printed with the result
    files: Dict[str, str] = field(default_factory=dict)  # path -> text the inputs read

    def write_files(self):
        for path, text in self.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def digest(branches: Sequence[Sequence[str]]) -> str:
    blob = json.dumps([list(b) for b in branches], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def report_outcome(report) -> dict:
    return {
        "verdicts": sorted(v.value for v in report.verdicts),
        "branches": digest([s.branches for s in report.segments]),
        "truncated": report.truncated,
        "shape": [len(s.branches) for s in report.segments],
    }


def run_cli(argv: List[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_outcome(result) -> dict:
    code, text = result
    if code in CLI_FAILURE_CODES:
        return {"exit": code}
    doc = json.loads(text)
    keys_ok = sorted(doc) == REPORT_KEYS and all(
        sorted(s) == SEGMENT_KEYS for s in doc["segments"]
    )
    return {
        "verdicts": doc["verdicts"],
        "branches": digest([s["branches"] for s in doc["segments"]]),
        "truncated": doc["truncated"],
        "shape": [len(s["branches"]) for s in doc["segments"]],
        "exit": code,
        "keys": keys_ok,
    }


def ref_string(outcome: dict) -> str:
    """Compact reference form: "verdicts|branch digest[|exit code]"."""
    parts = [",".join(outcome["verdicts"]), outcome["branches"]]
    if "exit" in outcome:
        parts.append(str(outcome["exit"]))
    return "|".join(parts)


def matches(observed: dict, expected: str) -> bool:
    """Verdicts and branch strings (and exit code and JSON keys on the CLI
    path) equal the reference."""
    return ref_string(observed) == expected and observed.get("keys", True)


# ---------------------------------------------------------------------------
# skew-random: the paper's hard problem, enumeration of each linearization
# ---------------------------------------------------------------------------

SKEW_SPEC = "G[0,40) (p -> F[0,12) q)"
SKEW_CFG = dict(epsilon=2, segments=4, branch_cap=512, max_verdicts_per_segment=512)
SKEW_SIZES = {"full": 5, "quick": 2}


def skew_random(size: str) -> List[Input]:
    phi = parse_spec(SKEW_SPEC)
    cfg = MonitorConfig(**SKEW_CFG)
    out = []
    for i in range(SKEW_SIZES[size]):
        seed, n = i, 16 + i % 5
        comp = casegen.gen_random_computation(
            seed, processes=2, events=n, epsilon=2, max_gap=6
        )
        out.append(Input(f"seed{seed}-n{n}", "monitor", monitor, (list(comp.events), phi, cfg)))
    return out


# ---------------------------------------------------------------------------
# swap-audit: the auditor's CLI path over the full two-party swap grid
# ---------------------------------------------------------------------------

SWAP_SPECS = ("liveness_2p", "alice_conform_2p", "alice_safety_2p", "alice_hedged_2p")
SWAP_DELTA = 10
SWAP_SIZES = {"full": 1024, "quick": 8}


def swap_audit(size: str, work_dir: str):
    """The CLI inputs, and the spec and JSONL log files (path -> text) they read."""
    params = casegen.ProtocolParams(delta=SWAP_DELTA, epsilon=1)
    os.makedirs(work_dir, exist_ok=True)
    library = casegen.spec_library(SWAP_DELTA)
    files, spec_paths = {}, {}
    for name in SWAP_SPECS:
        spec_paths[name] = os.path.join(work_dir, f"{name}.mtl")
        files[spec_paths[name]] = str(library[name]) + "\n"
    out = []
    vectors = casegen.enumerate_two_party_executions()[: SWAP_SIZES[size]]
    for vec in vectors:
        path = os.path.join(work_dir, f"two_party_{vec}.jsonl")
        files[path] = "".join(json.dumps(cli.event_to_json(e)) + "\n"
                              for e in casegen.gen_two_party_log(vec, params))
        for name in SWAP_SPECS:
            argv = ["monitor", "--trace", path, "--spec", spec_paths[name],
                    "--epsilon", "1", "--format", "json"]
            out.append(Input(f"{vec}-{name}", "cli", run_cli, (argv,)))
    return out, files


# ---------------------------------------------------------------------------
# smt-corpus: the criterion-4 corpus through the solver engine
# ---------------------------------------------------------------------------

SMT_SEED = 20240
SMT_SIZES = {"full": 20, "quick": 2}
ATOMS = ("p", "q", "r")


def _interval(rng: random.Random, max_start: int = 5, max_width: int = 8) -> Interval:
    start = rng.randrange(0, max_start + 1)
    if rng.random() < 0.25:
        return Interval(start, None)
    return Interval(start, start + rng.randrange(1, max_width + 1))


def _formula(rng: random.Random, depth: int) -> Formula:
    if depth == 0:
        return rng.choice([Atom(rng.choice(ATOMS)) for _ in range(3)])
    k = rng.randrange(7)
    if k == 0:
        return Not(_formula(rng, depth - 1))
    if k in (1, 2, 3):
        op = (Or, And, Implies)[k - 1]
        return op(_formula(rng, depth - 1), _formula(rng, depth - 1))
    if k == 4:
        return Until(_formula(rng, depth - 1), _interval(rng), _formula(rng, depth - 1))
    if k == 5:
        return Eventually(_interval(rng), _formula(rng, depth - 1))
    return Globally(_interval(rng), _formula(rng, depth - 1))


def _flat_formula(rng: random.Random) -> Formula:
    def prop() -> Formula:
        a = Atom(rng.choice(ATOMS))
        return Not(a) if rng.random() < 0.4 else a

    k = rng.randrange(6)
    if k == 0:
        return Until(prop(), _interval(rng), prop())
    if k == 1:
        return Eventually(_interval(rng), prop())
    if k == 2:
        return Globally(_interval(rng), prop())
    if k == 3:
        return Or(Eventually(_interval(rng), prop()), Globally(_interval(rng), prop()))
    if k == 4:
        return Implies(prop(), Eventually(_interval(rng), prop()))
    return And(Until(prop(), _interval(rng), prop()), Eventually(_interval(rng), prop()))


def _bounded_computation(rng, max_events=8, max_processes=3, epsilons=(1, 2, 3),
                         lin_cap=1200) -> Computation:
    """Random computation admitting at most lin_cap linearizations."""
    for attempt in range(60):
        epsilon = rng.choice(list(epsilons))
        events = rng.randrange(3, max_events + 1)
        processes = rng.randrange(1, max_processes + 1)
        spread = 2 * epsilon + 2 + attempt
        evs = []
        for pi in range(processes):
            t = rng.randrange(0, 3)
            count = events // processes + (1 if pi < events % processes else 0)
            for _ in range(count):
                props = frozenset(a for a in ATOMS if rng.random() < 0.35)
                evs.append(Event(f"P{pi + 1}", t, State(props)))
                t += rng.randrange(1, spread + 1)
        comp = build_computation(evs, epsilon)
        try:
            sum(1 for _ in enumerate_linearizations(comp, budget=lin_cap))
            return comp
        except OracleBudgetError:
            continue
    raise RuntimeError("could not draw a bounded computation")


def smt_cases(size: str):
    """(computation, formula) pairs of the criterion-4 recipe, in order."""
    rng = random.Random(SMT_SEED)
    out = []
    for case in range(SMT_SIZES[size]):
        if case % 7 == 3:  # a nested formula every 7th case
            comp = _bounded_computation(rng, max_events=5, epsilons=(1, 2), lin_cap=150)
            f = _formula(rng, 2)
            while max_nesting(f) < 2:
                f = _formula(rng, 2)
        else:
            comp = _bounded_computation(rng, max_events=8, lin_cap=900)
            f = _flat_formula(rng)
        out.append((comp, f))
    return out


def smt_corpus(size: str, solver_command: str) -> List[Input]:
    out = []
    for case, (comp, f) in enumerate(smt_cases(size)):
        cfg = MonitorConfig(epsilon=comp.epsilon, engine="smt", solver_command=solver_command,
                            max_verdicts_per_segment=128, branch_cap=512)
        out.append(Input(f"case{case}", "monitor", monitor, (list(comp.events), f, cfg)))
    return out


def oracle_reference(comp: Computation, f: Formula) -> str:
    """Expected one-segment outcome from the exhaustive oracle, which shares
    no code with the solver engine past the formula rewrite."""
    g = simplify(f)
    if formula_verdict(g) is not None:  # the pipeline freezes constants unsolved
        return ref_string({"verdicts": [formula_verdict(g).value], "branches": digest([[]])})
    outcomes = oracle_progress(comp, f)
    verdicts = set()
    for h in outcomes:
        v = formula_verdict(h)
        verdicts.add((v if v is not None else finalize(h)).value)
    return ref_string({"verdicts": sorted(verdicts),
                       "branches": digest([sorted({str(h) for h in outcomes})])})


# ---------------------------------------------------------------------------
# long-log: one long log, where the happened-before closure dominates
# ---------------------------------------------------------------------------

LONG_SPEC = "G (p -> F[0,12) q)"
LONG_SIZES = {"full": (800, 80), "quick": (80, 8)}  # events, segments


def long_log(size: str) -> List[Input]:
    events, segments = LONG_SIZES[size]
    seed = 7
    comp = casegen.gen_random_computation(
        seed, processes=3, events=events, epsilon=1, max_gap=4
    )
    cfg = MonitorConfig(epsilon=1, segments=segments)
    return [Input(f"seed{seed}-n{events}", "monitor", monitor,
                  (list(comp.events), parse_spec(LONG_SPEC), cfg))]


NAMES = ("skew-random", "swap-audit", "smt-corpus", "long-log")


def build(name: str, size: str, work_dir: str, solver_command: str,
          refs: Dict[str, str]) -> Workload:
    """Generate a workload's inputs; refs are its pinned references."""
    checks = "verdict sets and branch strings against pinned references"
    if name == "skew-random":
        return Workload(name, skew_random(size), refs, checks)
    if name == "swap-audit":
        inputs, files = swap_audit(size, os.path.join(work_dir, "swap-audit"))
        return Workload(name, inputs, refs, checks + ", exit codes and JSON keys", files)
    if name == "smt-corpus":
        return Workload(name, smt_corpus(size, solver_command), refs,
                        checks + " (from the exhaustive oracle)")
    if name == "long-log":
        return Workload(name, long_log(size), refs, checks)
    raise ValueError(f"unknown workload {name!r}")
