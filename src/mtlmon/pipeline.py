"""End-to-end monitor: ingest event logs, build the computation, cut it
into segments, thread rewritten-formula branches through the segments with
either verdict engine, finalize, and report the verdict set.

Branch threading: a branch is a pair (formula, time floor). Each segment
rewrites every live branch over its events. The enumerate engine walks the
segment's lattice of consistent cuts one event per layer, stepping the
pending formula over one frontier state per edge, so linearizations that
reach the same (cut, last time, formula) state share the rest of the
work; the outcome set equals the rewrite over every admissible
linearization. The floor carries the previous segment's last timestamp so
times never decrease across the boundary, and any event-free gap between
the floor and a segment's first time shifts the branch's anchored windows
before rewriting. Branches that collapse to a constant freeze
immediately and join the final verdict set. Per-process latest payloads
(the carry) seed each segment's frontier merging; they depend only on
which events earlier segments consumed, not on how they interleaved.

Segment boundaries come in two flavors:

  * "exact" (default): target times j*l/g are snapped down to the nearest
    safe cut, one where every consumed event is ordered before every
    pending one. Chopping then provably never changes the verdict set;
    when the log has no safe point near a target, the events roll forward
    (possibly degenerating to fewer effective segments).
  * "window": consume through each target time as-is. Reproduces the
    window segmentation with its epsilon overlap semantics faithfully,
    but verdicts can differ from the unsegmented run when concurrent
    events straddle a boundary.
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import smt as smt_backend
from .computation import Computation, Event, build_computation, time_window
from .formula import Formula, shift_anchored, simplify
from .oracle import OracleBudgetError, merge_frontier
from .progression import step

# perfbench/spans.py wraps these two names on this module to count
# linearizations and progress calls; the cut walk calls neither.
from .oracle import enumerate_linearizations  # noqa: F401
from .progression import progress  # noqa: F401
from .semantics import State, Verdict, finalize, formula_verdict

ENGINE_ENUMERATE = "enumerate"
ENGINE_SMT = "smt"

BOUNDARY_EXACT = "exact"
BOUNDARY_WINDOW = "window"


class IngestError(ValueError):
    pass


class ConfigError(ValueError):
    pass


@dataclass
class MonitorConfig:
    epsilon: int
    segments: int = 1
    engine: str = ENGINE_ENUMERATE
    solver_command: Optional[str] = None
    max_verdicts_per_segment: int = 16
    branch_cap: int = 64
    timeout: float = 60.0
    length: Optional[int] = None
    boundary: str = BOUNDARY_EXACT
    emit_smt_dir: Optional[str] = None
    oracle_budget: int = 10**6  # cut-lattice states one branch may visit per segment

    def validate(self):
        if self.epsilon < 1:
            raise ConfigError("epsilon must be a positive integer")
        if self.segments < 1:
            raise ConfigError("segments must be >= 1")
        if self.engine not in (ENGINE_ENUMERATE, ENGINE_SMT):
            raise ConfigError(f"unknown engine {self.engine!r}")
        if self.engine == ENGINE_SMT and not self.solver_command:
            raise ConfigError("engine 'smt' requires a solver command")
        if self.boundary not in (BOUNDARY_EXACT, BOUNDARY_WINDOW):
            raise ConfigError(f"unknown boundary mode {self.boundary!r}")
        if self.max_verdicts_per_segment < 1 or self.branch_cap < 1:
            raise ConfigError("verdict and branch caps must be >= 1")


@dataclass
class SegmentReport:
    index: int
    lo: int  # consumed local-time range (lo, hi]
    hi: int
    event_count: int
    branches: List[str] = field(default_factory=list)
    ms: float = 0.0


@dataclass
class MonitorReport:
    verdicts: Set[Verdict]
    segments: List[SegmentReport]
    truncated: bool

    def to_json(self) -> dict:
        return {
            "verdicts": sorted(v.value for v in self.verdicts),
            "segments": [
                {
                    "index": s.index,
                    "range": [s.lo, s.hi],
                    "events": s.event_count,
                    "branches": s.branches,
                    "ms": round(s.ms, 3),
                }
                for s in self.segments
            ],
            "truncated": self.truncated,
        }


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def ingest(paths) -> List[Event]:
    """Read one or more JSONL trace files into events.

    Each line is an object {proc, ts, kind, msg, props, vars}; kind
    defaults to "local". Variable maps hold absolute running totals and
    are carried forward along each process stream, so a line only needs
    to list totals that changed.
    """
    if isinstance(paths, (str, bytes)):
        paths = [paths]
    records = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise IngestError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
                try:
                    proc = str(obj["proc"])
                    ts = obj["ts"]
                except KeyError as exc:
                    raise IngestError(f"{path}:{lineno}: missing field {exc}") from exc
                if not isinstance(ts, int) or ts < 0:
                    raise IngestError(
                        f"{path}:{lineno}: ts must be a non-negative integer, got {ts!r}"
                    )
                kind = obj.get("kind", "local")
                msg = obj.get("msg")
                props = obj.get("props", [])
                variables = obj.get("vars", {})
                if not isinstance(props, list) or not all(
                    isinstance(p, str) for p in props
                ):
                    raise IngestError(f"{path}:{lineno}: props must be a string list")
                if not isinstance(variables, dict) or not all(
                    isinstance(v, int) for v in variables.values()
                ):
                    raise IngestError(f"{path}:{lineno}: vars must map names to ints")
                records.append((path, lineno, proc, ts, kind, msg, props, variables))

    records.sort(key=lambda r: (r[3], r[2]))
    running: Dict[str, Dict[str, int]] = {}
    last_ts: Dict[str, int] = {}
    events: List[Event] = []
    for path, lineno, proc, ts, kind, msg, props, variables in records:
        if proc in last_ts and ts <= last_ts[proc]:
            raise IngestError(
                f"{path}:{lineno}: timestamps on process {proc!r} must be"
                f" strictly increasing ({ts} after {last_ts[proc]})"
            )
        last_ts[proc] = ts
        totals = dict(running.get(proc, {}))
        totals.update(variables)
        running[proc] = totals
        try:
            events.append(
                Event(proc, ts, State(frozenset(props), totals), kind, msg)
            )
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from exc
    return events


# ---------------------------------------------------------------------------
# Segment boundary selection
# ---------------------------------------------------------------------------


def _is_safe_cut(events: Sequence[Event], theta: int, epsilon: int) -> bool:
    """True iff every event at or below theta is ordered before every event
    above it (cross-process pairs need a gap of at least epsilon)."""
    max_below: Dict[str, int] = {}
    min_above: Dict[str, int] = {}
    for e in events:
        if e.local_time <= theta:
            max_below[e.process] = max(max_below.get(e.process, -1), e.local_time)
        else:
            cur = min_above.get(e.process)
            if cur is None or e.local_time < cur:
                min_above[e.process] = e.local_time
    for p, below in max_below.items():
        for q, above in min_above.items():
            if p != q and above - below < epsilon:
                return False
    return True


def consumption_boundaries(
    events: Sequence[Event], g: int, l: int, epsilon: int, mode: str
) -> List[int]:
    """Local-time thresholds theta_1 <= ... <= theta_g; segment j consumes
    events with local time in (theta_{j-1}, theta_j], theta_0 = -1."""
    if g == 1:
        return [l]
    out = []
    prev = -1
    times = sorted({e.local_time for e in events})
    for j in range(1, g):
        target = (j * l) // g
        if mode == BOUNDARY_WINDOW:
            theta = target
        else:
            theta = prev
            for t in times:
                if t > target:
                    break
                if t > theta and _is_safe_cut(events, t, epsilon):
                    theta = t
        out.append(max(theta, prev))
        prev = out[-1]
    out.append(max(l, prev))
    return out


# ---------------------------------------------------------------------------
# Monitoring
# ---------------------------------------------------------------------------


def monitor(events: Sequence[Event], f: Formula, cfg: MonitorConfig) -> MonitorReport:
    """Compute the verdict set of a formula over an event log."""
    cfg.validate()
    if not events:
        raise ValueError("cannot monitor an empty event log")
    comp = build_computation(events, cfg.epsilon)
    l = cfg.length if cfg.length is not None else comp.length
    if l < comp.length:
        raise ConfigError(f"length {l} below the last event time {comp.length}")

    thetas = consumption_boundaries(comp.events, cfg.segments, l, cfg.epsilon, cfg.boundary)
    branches: Dict[Tuple[Formula, Optional[int]], None] = {(simplify(f), None): None}
    frozen: Set[Verdict] = set()
    truncated = False
    seg_reports: List[SegmentReport] = []
    carry: Dict[str, State] = {}

    prev_theta = -1
    for index, theta in enumerate(thetas, start=1):
        consumed = [
            i
            for i, e in enumerate(comp.events)
            if prev_theta < e.local_time <= theta
        ]
        report = SegmentReport(index, prev_theta + 1, theta, len(consumed))
        t0 = _time.perf_counter()
        if consumed:
            sub = comp.restrict(consumed)
            new_branches: Dict[Tuple[Formula, Optional[int]], None] = {}
            ordered = sorted(branches, key=lambda b: (str(b[0]), b[1] if b[1] is not None else -1))
            for ordinal, (phi, floor) in enumerate(ordered):
                verdict = formula_verdict(phi)
                if verdict is not None:
                    frozen.add(verdict)
                    continue
                pairs, complete = _progress_branch(
                    sub, phi, floor, carry, cfg, index, ordinal
                )
                if not complete:
                    truncated = True
                for pair in pairs:
                    new_branches[pair] = None
            branches = new_branches
            if len(branches) > cfg.branch_cap:
                keep = sorted(branches, key=lambda b: (str(b[0]), b[1]))[: cfg.branch_cap]
                branches = {b: None for b in keep}
                truncated = True
            for proc, st in _segment_carry(sub).items():
                carry[proc] = st
        report.ms = (_time.perf_counter() - t0) * 1000.0
        report.branches = sorted({str(phi) for phi, _ in branches})
        seg_reports.append(report)
        prev_theta = theta

    final: Set[Verdict] = set(frozen)
    for phi, _floor in branches:
        v = formula_verdict(phi)
        final.add(v if v is not None else finalize(phi))
    return MonitorReport(final, seg_reports, truncated)


def _segment_carry(sub: Computation) -> Dict[str, State]:
    latest: Dict[str, Event] = {}
    for e in sub.events:
        cur = latest.get(e.process)
        if cur is None or e.local_time > cur.local_time:
            latest[e.process] = e
    return {p: e.payload for p, e in latest.items()}


def _progress_branch(
    sub: Computation,
    phi: Formula,
    floor: Optional[int],
    carry: Dict[str, State],
    cfg: MonitorConfig,
    seg_index: int,
    ordinal: int,
) -> Tuple[Set[Tuple[Formula, int]], bool]:
    """All (rewritten formula, last time) outcomes of one branch over one
    segment, plus a completeness flag."""
    if cfg.engine == ENGINE_SMT:
        enum = smt_backend.enumerate_verdicts(
            sub,
            phi,
            cfg.max_verdicts_per_segment,
            cfg.solver_command,
            floor=floor,
            carry=carry,
            timeout=cfg.timeout,
            thread_timing=True,
            emit_dir=cfg.emit_smt_dir,
            emit_tag=f"seg{seg_index}_b{ordinal}",
        )
        return set(enum.branches), enum.complete
    out = _walk_cuts(sub, phi, floor, carry, cfg.oracle_budget)
    if len(out) > cfg.max_verdicts_per_segment:
        keep = sorted(out, key=lambda p: (str(p[0]), p[1]))
        return set(keep[: cfg.max_verdicts_per_segment]), False
    return out, True


def _walk_cuts(
    sub: Computation,
    phi: Formula,
    floor: Optional[int],
    carry: Dict[str, State],
    budget: int,
) -> Set[Tuple[Formula, int]]:
    """Every (residual, last time) outcome of one branch over one segment,
    by a walk over the lattice of consistent cuts, one event per layer.

    A state is (cut, last time, pending formula): the cut as per-process
    prefix lengths, and the formula not yet progressed over the cut's
    frontier state. An edge adds one enabled event at a time t' >= t from
    its skew window and steps the pending formula over the frontier with
    elapsed t' - t. Linearizations that reach the same state share all
    later work, so the cost follows the number of distinct states rather
    than the number of linearizations. Raises OracleBudgetError when more
    than `budget` states are visited.
    """
    events = sub.events
    procs = sorted({e.process for e in events})
    slot = {p: k for k, p in enumerate(procs)}
    streams: List[List[int]] = [[] for _ in procs]  # program order per process
    for i, e in enumerate(events):
        streams[slot[e.process]].append(i)
    # hb restricted to one process is a prefix of its stream, so an event is
    # enabled once the cut holds that many events of every process
    need = []
    for i in range(len(events)):
        counts = [0] * len(procs)
        for j in sub.hb[i]:
            counts[slot[events[j].process]] += 1
        need.append(counts)
    windows = [time_window(e, sub.epsilon) for e in events]

    def successors(cut, t):
        """(cut, time) pairs reached by adding one enabled event at or
        after t, skipping times that leave some remaining event no room."""
        for k, stream in enumerate(streams):
            if cut[k] == len(stream):
                continue
            i = stream[cut[k]]
            if any(c < m for c, m in zip(cut, need[i])):
                continue
            nxt = cut[:k] + (cut[k] + 1,) + cut[k + 1:]
            hi = min(
                (windows[s[c]][-1] for s, c in zip(streams, nxt) if c < len(s)),
                default=windows[i][-1],
            )
            for t2 in windows[i]:
                if t <= t2 <= hi:
                    yield nxt, t2

    frontiers: Dict[Tuple[int, ...], State] = {}

    def frontier(cut) -> State:
        st = frontiers.get(cut)
        if st is None:
            latest = dict(carry)
            for k, c in enumerate(cut):
                if c:
                    latest[procs[k]] = events[streams[k][c - 1]].payload
            st = frontiers[cut] = merge_frontier(latest)
        return st

    steps: Dict[Tuple[Tuple[int, ...], Formula, int], Formula] = {}

    def advance(cut, f: Formula, gap: int) -> Formula:
        key = (cut, f, gap)
        out = steps.get(key)
        if out is None:
            out = steps[key] = step(frontier(cut), f, gap)
        return out

    visited = 0

    def count(layer):
        nonlocal visited
        visited += sum(len(fs) for fs in layer.values())
        if visited > budget:
            raise OracleBudgetError(f"more than {budget} lattice states")

    # layer k maps (cut of k events, last time) to its pending formulas
    layer: Dict[Tuple[Tuple[int, ...], int], Set[Formula]] = {}
    for cut, t in successors((0,) * len(procs), 0 if floor is None else floor):
        gap = 0 if floor is None else t - floor
        layer[(cut, t)] = {simplify(shift_anchored(phi, gap))}
    count(layer)
    for _ in range(1, len(events)):
        nxt_layer: Dict[Tuple[Tuple[int, ...], int], Set[Formula]] = {}
        for (cut, t), fs in layer.items():
            for nxt, t2 in successors(cut, t):
                succ = nxt_layer.setdefault((nxt, t2), set())
                for f in fs:
                    succ.add(advance(cut, f, t2 - t))
        layer = nxt_layer
        count(layer)
    return {(advance(cut, f, 0), t) for (cut, t), fs in layer.items() for f in fs}
