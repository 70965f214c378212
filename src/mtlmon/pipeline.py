"""End-to-end monitor: ingest event logs, build the computation, cut it
into segments, thread rewritten-formula branches through the segments with
either verdict engine, finalize, and report the verdict set.

Branch threading: a branch is a pair (formula, time floor). Each segment
rewrites every live branch over its events. The enumerate engine walks the
segment's lattice of consistent cuts one event per layer, stepping the
pending formula over one frontier state per edge, so linearizations that
reach the same (cut, last time, formula) state share the rest of the
work; the outcome set equals the rewrite over every admissible
linearization. Each one-state rewrite goes through one memo per process,
keyed by (frontier state, pending formula, gap): every branch of every
segment, and every later call that meets the same key, reads one rewrite.
Within one `monitor` call the memo is never evicted, so each key is
stepped at most once per run; at the end of a call that leaves it holding
more than REWRITE_LIMIT entries, it is dropped whole. The memo keeps one
object per distinct frontier state and rewritten formula (hash-consing),
and the input formula is normalized once per distinct formula, so a
repeated spec reaches the memo as the same object and lookups mostly
compare by identity. The floor carries the previous segment's last
timestamp so times never decrease across the boundary, and any event-free
gap between the floor and a segment's first time shifts the branch's
anchored windows before rewriting. Branches that collapse to
a constant freeze immediately and join the final verdict set. Per-process
latest payloads (the carry) seed each segment's frontier merging; they
depend only on which events earlier segments consumed, not on how they
interleaved.

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

import functools
import json
import math
import shlex
import time as _time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import smt as smt_backend
from .computation import Computation, Event, build_computation, time_window
from .errors import BudgetExceeded, InputError, UsageError
from .formula import Formula, shift_anchored, simplify
from .progression import step

# perfbench/spans.py wraps these two names on this module to count
# linearizations and progress calls; the cut walk calls neither.
from .oracle import enumerate_linearizations  # noqa: F401
from .progression import progress  # noqa: F401
from .semantics import State, Verdict, finalize, formula_verdict, merge_frontier

ENGINE_ENUMERATE = "enumerate"
ENGINE_SMT = "smt"

BOUNDARY_EXACT = "exact"
BOUNDARY_WINDOW = "window"

STATE_BUDGET = 10**6  # cut-lattice states one branch may visit per segment
# rewrite-memo entries kept between calls; about 0.3 KB each on the
# criterion-8 log, so at most about 5 MB stay alive between calls
REWRITE_LIMIT = 1 << 14
NORMAL_CACHE_SIZE = 64  # distinct input formulas whose normal form is kept

# step(frontier state, pending formula, gap) -> rewritten formula, shared
# by every walk in the process (see the module docstring)
_rewrites: Dict[Tuple[State, Formula, int], Formula] = {}
# one object per distinct frontier state and rewritten formula, so the memo
# keeps no equal copies alive; dropped together with the memo
_terms: Dict[object, object] = {}


def _shared(x):
    """The first object equal to x that the memo has met, else x."""
    return _terms.setdefault(x, x)


class IngestError(InputError):
    label = "trace error"


class ConfigError(UsageError):
    pass


@dataclass
class MonitorConfig:
    epsilon: int
    segments: int = 1
    engine: str = ENGINE_ENUMERATE
    solver_command: Optional[str] = None
    max_verdicts_per_segment: int = 16
    branch_cap: int = 64
    timeout: float = smt_backend.DEFAULT_TIMEOUT
    length: Optional[int] = None
    boundary: str = BOUNDARY_EXACT
    emit_smt_dir: Optional[str] = None

    def validate(self):
        if self.epsilon < 1:
            raise ConfigError("epsilon must be a positive integer")
        if self.segments < 1:
            raise ConfigError("segments must be >= 1")
        if self.engine not in (ENGINE_ENUMERATE, ENGINE_SMT):
            raise ConfigError(f"unknown engine {self.engine!r}")
        if self.engine == ENGINE_SMT:
            try:
                argv = shlex.split(self.solver_command or "")
            except ValueError as exc:
                raise ConfigError(f"cannot split the solver command: {exc}") from None
            if not argv:
                raise ConfigError("engine 'smt' requires a solver command")
        if self.boundary not in (BOUNDARY_EXACT, BOUNDARY_WINDOW):
            raise ConfigError(f"unknown boundary mode {self.boundary!r}")
        if self.max_verdicts_per_segment < 1 or self.branch_cap < 1:
            raise ConfigError("verdict and branch caps must be >= 1")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ConfigError("timeout must be a finite positive number of seconds")


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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    record = _parse_line(path, lineno, line)
                    if record is not None:
                        records.append(record)
        except UnicodeDecodeError as exc:
            raise IngestError(f"{path}: not UTF-8 text: {exc}") from exc
        except OSError as exc:
            raise IngestError(str(exc)) from exc

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


def _parse_line(path, lineno: int, line: str) -> Optional[tuple]:
    """The record of one trace line; None for a blank or comment line."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    where = f"{path}:{lineno}"
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise IngestError(f"{where}: malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise IngestError(f"{where}: a line must be a JSON object")
    try:
        proc = obj["proc"]
        ts = obj["ts"]
    except KeyError as exc:
        raise IngestError(f"{where}: missing field {exc}") from exc
    if not isinstance(proc, str) or not proc:
        raise IngestError(f"{where}: proc must be a non-empty string, got {proc!r}")
    # bool is a subclass of int, so `true` would otherwise read as 1
    if type(ts) is not int or ts < 0:
        raise IngestError(f"{where}: ts must be a non-negative integer, got {ts!r}")
    kind = obj.get("kind", "local")
    msg = obj.get("msg")
    props = obj.get("props", [])
    variables = obj.get("vars", {})
    if msg is not None and not isinstance(msg, str):
        raise IngestError(f"{where}: msg must be a string")
    if not isinstance(props, list) or not all(isinstance(p, str) for p in props):
        raise IngestError(f"{where}: props must be a string list")
    if not isinstance(variables, dict) or not all(
        type(v) is int for v in variables.values()
    ):
        raise IngestError(f"{where}: vars must map names to ints")
    return (path, lineno, proc, ts, kind, msg, props, variables)


# ---------------------------------------------------------------------------
# Segment boundary selection
# ---------------------------------------------------------------------------


def _is_safe_cut(proc_times: Sequence[Sequence[int]], theta: int, epsilon: int) -> bool:
    """True iff every event at or below theta is ordered before every event
    above it (cross-process pairs need a gap of at least epsilon). Only the
    latest time below and the earliest above on each process matter; each
    is one bisect into that process's sorted times."""
    below: List[Tuple[int, int]] = []  # (process column, time)
    above: List[Tuple[int, int]] = []
    for k, ts in enumerate(proc_times):
        r = bisect_right(ts, theta)
        if r:
            below.append((k, ts[r - 1]))
        if r < len(ts):
            above.append((k, ts[r]))
    return all(p == q or a - b >= epsilon for p, b in below for q, a in above)


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
    by_proc: Dict[str, List[int]] = {}
    for e in events:
        by_proc.setdefault(e.process, []).append(e.local_time)
    proc_times = [sorted(ts) for ts in by_proc.values()]
    for j in range(1, g):
        target = (j * l) // g
        if mode == BOUNDARY_WINDOW:
            theta = target
        else:
            theta = prev
            # the largest safe candidate in (prev, target], searched downward
            for r in range(bisect_right(times, target) - 1, -1, -1):
                if times[r] <= prev:
                    break
                if _is_safe_cut(proc_times, times[r], epsilon):
                    theta = times[r]
                    break
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
        raise InputError("cannot monitor an empty event log")
    comp = build_computation(events, cfg.epsilon)
    l = cfg.length if cfg.length is not None else comp.length
    if l < comp.length:
        raise InputError(f"length {l} below the last event time {comp.length}")

    thetas = consumption_boundaries(comp.events, cfg.segments, l, cfg.epsilon, cfg.boundary)
    branches: Dict[Tuple[Formula, Optional[int]], None] = {(_normalized(f), None): None}
    frozen: Set[Verdict] = set()
    truncated = False
    seg_reports: List[SegmentReport] = []
    carry: Dict[str, State] = {}

    times = [e.local_time for e in comp.events]  # ascending: events sort by time
    prev_theta = -1
    try:
        for index, theta in enumerate(thetas, start=1):
            consumed = range(bisect_right(times, prev_theta), bisect_right(times, theta))
            report = SegmentReport(index, prev_theta + 1, theta, len(consumed))
            t0 = _time.perf_counter()
            if consumed:
                sub = comp.restrict(consumed)
                new_branches: Dict[Tuple[Formula, Optional[int]], None] = {}
                ordered = sorted(
                    branches, key=lambda b: (str(b[0]), b[1] if b[1] is not None else -1)
                )
                for ordinal, (phi, floor) in enumerate(ordered):
                    verdict = formula_verdict(phi)
                    if verdict is not None:
                        frozen.add(verdict)
                        continue
                    pairs, complete = _progress_branch(sub, phi, floor, carry, cfg, index, ordinal)
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
    finally:
        if len(_rewrites) > REWRITE_LIMIT:
            _rewrites.clear()
            _terms.clear()

    final: Set[Verdict] = set(frozen)
    for phi, _floor in branches:
        v = formula_verdict(phi)
        final.add(v if v is not None else finalize(phi))
    return MonitorReport(final, seg_reports, truncated)


@functools.lru_cache(maxsize=NORMAL_CACHE_SIZE)
def _normalized(f: Formula) -> Formula:
    """The normal form of an input formula, one per distinct formula."""
    return simplify(f)


def _segment_carry(sub: Computation) -> Dict[str, State]:
    """Payload of each process's latest event in the segment."""
    return {p: sub.events[s[-1]].payload for p, s in zip(sub.processes, sub.streams)}


def _progress_branch(
    sub: Computation,
    phi: Formula,
    floor: Optional[int],
    carry: Dict[str, State],
    cfg: MonitorConfig,
    seg_index: int,
    ordinal: int,
) -> Tuple[Set[Tuple[Formula, int]], bool]:
    """The (rewritten formula, last time) outcomes of one branch over one
    segment, plus a completeness flag. Both engines flag the result
    incomplete exactly when more than `max_verdicts_per_segment` outcomes
    exist, and then keep that many in sorted order: the enumerate engine
    the sorted first of all outcomes, the smt engine, which stops after
    one outcome past the cap, the sorted first of those it found. The kept
    outcomes of a truncated result may therefore differ between engines.
    The smt engine does not read the rewrite memo."""
    cap = cfg.max_verdicts_per_segment
    if cfg.engine == ENGINE_SMT:
        # one outcome past the cap tells "exactly cap" from "more than cap"
        enum = smt_backend.enumerate_verdicts(
            sub,
            phi,
            cap + 1,
            cfg.solver_command,
            floor=floor,
            carry=carry,
            timeout=cfg.timeout,
            emit_dir=cfg.emit_smt_dir,
            emit_tag=f"seg{seg_index}_b{ordinal}",
        )
        out = set(enum.branches)
    else:
        out = _walk_cuts(sub, phi, floor, carry)
    if len(out) > cap:
        keep = sorted(out, key=lambda p: (str(p[0]), p[1]))
        return set(keep[:cap]), False
    return out, True


def _walk_cuts(
    sub: Computation,
    phi: Formula,
    floor: Optional[int],
    carry: Dict[str, State],
) -> Set[Tuple[Formula, int]]:
    """Every (residual, last time) outcome of one branch over one segment,
    by a walk over the lattice of consistent cuts, one event per layer.

    A state is (cut, last time, pending formula): the cut as per-process
    prefix lengths, and the formula not yet progressed over the cut's
    frontier state. An edge adds one enabled event at a time t' >= t from
    its skew window and steps the pending formula over the frontier with
    elapsed t' - t. Linearizations that reach the same state share all
    later work, so the cost follows the number of distinct states rather
    than the number of linearizations. Raises BudgetExceeded when this
    branch visits more than STATE_BUDGET states.

    `phi` is normalized, and so is every formula the walk builds from it.
    Each step goes through `_rewrites`, the memo of the whole process,
    keyed by (frontier state, pending formula, gap): `step` reads nothing
    else, so one rewrite serves every cut, branch and segment of this
    call and of later calls that meet the same key. `monitor` evicts the
    memo only between calls, when it holds more than REWRITE_LIMIT
    entries, so within one call each key is stepped at most once. Frontier
    states and rewrites enter the memo through `_shared`, so equal ones
    are one object.
    Frontier states are keyed by cut and stay local to this walk, since
    cuts name events of this segment only and the carry changes between
    segments.
    """
    events = sub.events
    procs = sub.processes
    streams = sub.streams  # program order per process
    # an event is enabled once the cut holds as many events of every
    # process as its clock names
    need = sub.clock
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
            st = frontiers[cut] = _shared(merge_frontier(latest))
        return st

    def advance(st: State, f: Formula, gap: int) -> Formula:
        key = (st, f, gap)
        out = _rewrites.get(key)
        if out is None:
            out = _rewrites[key] = _shared(step(st, f, gap))
        return out

    visited = 0

    def count(layer):
        nonlocal visited
        visited += sum(len(fs) for fs in layer.values())
        if visited > STATE_BUDGET:
            raise BudgetExceeded(f"more than {STATE_BUDGET} lattice states")

    # layer k maps (cut of k events, last time) to its pending formulas
    layer: Dict[Tuple[Tuple[int, ...], int], Set[Formula]] = {}
    for cut, t in successors((0,) * len(procs), 0 if floor is None else floor):
        gap = 0 if floor is None else t - floor
        layer[(cut, t)] = {shift_anchored(phi, gap)}
    count(layer)
    for _ in range(1, len(events)):
        nxt_layer: Dict[Tuple[Tuple[int, ...], int], Set[Formula]] = {}
        for (cut, t), fs in layer.items():
            st = frontier(cut)
            for nxt, t2 in successors(cut, t):
                succ = nxt_layer.setdefault((nxt, t2), set())
                for f in fs:
                    succ.add(advance(st, f, t2 - t))
        layer = nxt_layer
        count(layer)
    return {
        (advance(frontier(cut), f, 0), t) for (cut, t), fs in layer.items() for f in fs
    }
