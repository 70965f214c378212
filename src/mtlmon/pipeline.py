"""End-to-end monitor: ingest event logs, build the computation, cut it
into segments, thread rewritten-formula branches through the segments with
either verdict engine, finalize, and report the verdict set.

Branch threading: a branch is a pair (formula, time floor). Each segment
rewrites every live branch over its events. The enumerate engine walks
the segment's lattice of consistent cuts once, one event per layer, for
all live branches together: a state is (cut, last time, pending formula)
and carries a bitmask of the branches that reach it, so linearizations,
and branches, that reach the same state share the rest of the work. A
layer is keyed by cut, then last time, so each cut's frontier state (one
`progression.frontier` lookup) and its enabled events are found once per
segment; each of its times is expanded once: its pending set is stepped
over the frontier in one call, and the result shifted once per successor
time, however many enabled events land at that time.
Each branch's outcome set, the states whose mask holds its bit, equals
the rewrite over every admissible linearization, and the state budget
counts each branch's own states. Each one-state rewrite and each shift
reads the memo of `progression`, which both engines share; `monitor` runs
`progression.evict` when it returns. The input formula is
normalized once per distinct formula. The floor carries the previous
segment's last timestamp so times never decrease across the boundary, and any
event-free gap between the floor and a segment's first time shifts the
branch's anchored windows before rewriting. Branches that collapse to a
constant freeze immediately and join the final verdict set. The
computation is built once; a segment is a range of its event indices,
which holds one block of each process's stream, and both engines read
those slices through one set of tables (`computation.segment_tables`).
Cuts count from the segment's base cut, and the payloads the processes
hold there seed the frontier states. The enumerate engine walks each
segment once for all live branches; the smt engine runs one solver
enumeration per live branch.

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
from collections import Counter
from dataclasses import dataclass, field
from operator import ge, getitem
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import smt as smt_backend
from .computation import Computation, Event, build_computation, segment_tables, time_window
from .errors import BudgetExceeded, InputError, UsageError
from .formula import Formula, simplify
from .progression import advance_all, evict, frontier, shift_all

# perfbench/spans.py wraps these three names on this module to count
# linearizations, progress calls and shifts; the cut walk calls none.
from .formula import shift_anchored  # noqa: F401
from .oracle import enumerate_linearizations, progress  # noqa: F401
from .semantics import State, Verdict, finalize, formula_verdict

ENGINE_ENUMERATE = "enumerate"
ENGINE_SMT = "smt"

BOUNDARY_EXACT = "exact"
BOUNDARY_WINDOW = "window"

STATE_BUDGET = 10**6  # cut-lattice states one branch may visit per segment
NORMAL_CACHE_SIZE = 64  # distinct input formulas whose normal form is kept


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

    times = [e.local_time for e in comp.events]  # ascending: events sort by time
    prev_theta = -1
    try:
        for index, theta in enumerate(thetas, start=1):
            consumed = range(bisect_right(times, prev_theta), bisect_right(times, theta))
            report = SegmentReport(index, prev_theta + 1, theta, len(consumed))
            t0 = _time.perf_counter()
            if consumed:
                ordered = sorted(branches, key=_branch_key)
                live = []
                for ordinal, (phi, floor) in enumerate(ordered):
                    verdict = formula_verdict(phi)
                    if verdict is None:
                        live.append((ordinal, phi, floor))
                    else:
                        frozen.add(verdict)
                results = _progress_segment(comp, consumed, live, cfg, index)
                truncated = truncated or not all(complete for _, complete in results)
                branches = {pair: None for pairs, _ in results for pair in pairs}
                if len(branches) > cfg.branch_cap:
                    keep = sorted(branches, key=_branch_key)[: cfg.branch_cap]
                    branches = {b: None for b in keep}
                    truncated = True
            report.ms = (_time.perf_counter() - t0) * 1000.0
            report.branches = sorted({str(phi) for phi, _ in branches})
            seg_reports.append(report)
            prev_theta = theta
    finally:
        evict()

    final = frozen | {finalize(phi) for phi, _floor in branches}
    return MonitorReport(final, seg_reports, truncated)


def _branch_key(b: Tuple[Formula, Optional[int]]) -> Tuple[str, int]:
    """The order of branches and outcomes (formula, time): by formula text,
    then time, a missing floor first."""
    return str(b[0]), -1 if b[1] is None else b[1]


@functools.lru_cache(maxsize=NORMAL_CACHE_SIZE)
def _normalized(f: Formula) -> Formula:
    """The normal form of an input formula, one per distinct formula."""
    return simplify(f)


def _progress_segment(
    comp: Computation,
    consumed: range,
    live: Sequence[Tuple[int, Formula, Optional[int]]],
    cfg: MonitorConfig,
    seg_index: int,
) -> List[Tuple[Set[Tuple[Formula, int]], bool]]:
    """The (rewritten formula, last time) outcomes of each live branch
    (ordinal, formula, floor) over the segment of the events indexed by
    `consumed`, each with a completeness flag. Both engines flag a
    branch's result incomplete exactly when more
    than `max_verdicts_per_segment` outcomes exist, and then keep that
    many in sorted order: the enumerate engine the sorted first of all
    outcomes, the smt engine, which stops after one outcome past the cap,
    the sorted first of those it found. The kept outcomes of a truncated
    result may therefore differ between engines. Both engines read the
    segment's tables (`computation.segment_tables`): the enumerate engine
    walks the segment once for all branches, the smt engine runs one
    enumeration per branch."""
    cap = cfg.max_verdicts_per_segment
    if cfg.engine == ENGINE_SMT:
        outs = [
            # one outcome past the cap tells "exactly cap" from "more than cap"
            set(smt_backend.enumerate_verdicts(
                comp, phi, cap + 1, cfg.solver_command, floor=floor, consumed=consumed,
                timeout=cfg.timeout, emit_dir=cfg.emit_smt_dir,
                emit_tag=f"seg{seg_index}_b{ordinal}",
            ).branches)
            for ordinal, phi, floor in live
        ]
    else:
        outs = _walk_cuts(comp, consumed, [(phi, floor) for _, phi, floor in live])
    return [
        (out, True) if len(out) <= cap
        else (set(sorted(out, key=_branch_key)[:cap]), False)
        for out in outs
    ]


def _walk_cuts(
    comp: Computation,
    consumed: range,
    branches: Sequence[Tuple[Formula, Optional[int]]],
) -> List[Set[Tuple[Formula, int]]]:
    """Every (residual, last time) outcome of each branch (formula, floor)
    over the segment of the events indexed by `consumed`: one set per
    branch, in order, from one walk over the segment's lattice of
    consistent cuts, one event per layer.

    The walk reads the segment's tables (`computation.segment_tables`),
    slices of the whole computation. A cut counts, for each process, its
    events in the segment that the cut holds, so the empty cut is the
    segment's base cut and the full cut the next segment's. An event is
    enabled once the cut reaches its enabling cut, its clock clamped
    between those two cuts, and until its first event in the segment each
    process holds its payload at the base cut.

    A state is (cut, last time, pending formula): the cut as per-process
    prefix lengths, and the formula not yet progressed over the cut's
    frontier state. An edge adds one enabled event at a time t' >= t from
    its skew window; the pending formula is stepped over the frontier and
    shifted by t' - t. Linearizations that reach the same state share all
    later work, so the cost follows the number of distinct states rather
    than the number of linearizations.

    The branches share the walk. A layer maps each cut to {last time:
    {pending formula: bitmask of the branches that reach it}}, and where
    states meet their masks are OR-ed; a branch's outcomes are those whose
    mask holds its bit. Only layer 0, the empty cut, depends on a branch:
    each branch's formula sits there at its floor as its time, and since
    no state is visible yet, an edge out of it only shifts the formula by
    the gap from the floor (none without a floor). A cut of k events lies
    only in layer k, so its frontier state and its enabled events are
    found once, then each of its times is expanded once, and its shifted
    set is made once per successor time: every enabled event that lands
    at the same time shares it. Raises BudgetExceeded when some branch visits more
    than STATE_BUDGET states, counting for each branch the states whose
    mask holds its bit, but not the empty cut; the masks are counted per
    branch only once the states of all branches together pass the budget.

    Every formula is normalized. Each (cut, time) but the empty cut steps
    its whole pending set in one `progression.advance_all` call; the full
    cut, with no enabled event, keeps the result as its outcomes, and any
    other cut shifts it in one `progression.shift_all` call per successor
    time, whose copy a successor reached first takes. Each frontier state
    is `progression.frontier`; the memos are described there.
    """
    seg = segment_tables(comp, consumed)
    events, blocks, enabling = comp.events, seg.blocks, seg.enabling
    windows = {i: time_window(events[i], comp.epsilon) for i in consumed}
    # starts[k][c] and ends[k][c]: the earliest and the latest time the
    # c-th event of process k may take, both rising with c; a process with
    # no event left bounds nothing, and the segment's last event sorts latest
    starts = [[windows[i].start for i in blk] for blk in blocks]
    top = windows[consumed[-1]][-1]
    ends = [[windows[i][-1] for i in blk] + [top] for blk in blocks]
    # latest[k][c]: the latest payload of process k once the cut holds c
    # of its events; before the first, the one it holds at the base cut,
    # None if it holds none yet
    latest = [[held] + [events[i].payload for i in blk]
              for held, blk in zip(seg.held, blocks)]

    def frontier_at(cut) -> State:
        return frontier(tuple(filter(None, map(getitem, latest, cut))))

    def moves(cut):
        """The latest time that leaves every remaining event room, which is
        the earliest end of an event next on some process, and the (next
        cut, earliest time) of each event enabled at cut."""
        out = []
        for k, c in enumerate(cut):
            if c < len(enabling[k]) and all(map(ge, cut, enabling[k][c])):
                out.append((cut[:k] + (c + 1,) + cut[k + 1:], starts[k][c]))
        return min(map(getitem, ends, cut)), out

    masks: List[int] = []  # the mask of each visited state not yet in `visited`
    visited = [0] * len(branches)  # states per branch, not counting `masks`
    folded = 0  # states of all branches together, not counting `masks`

    def count(layer):
        nonlocal folded
        for at in layer.values():
            for fs in at.values():
                masks.extend(fs.values())
        # no branch passes the budget before all of them together do
        if folded + len(masks) > STATE_BUDGET:
            for m, n in Counter(masks).items():
                for b in range(len(branches)):
                    if m >> b & 1:
                        visited[b] += n
            folded += len(masks)
            masks.clear()
            if max(visited) > STATE_BUDGET:
                raise BudgetExceeded(f"more than {STATE_BUDGET} lattice states")

    # layer k maps each cut of k events to {last time: {pending formula:
    # mask}}; at the empty cut a branch's time is its floor, which may be None
    empty = (0,) * len(blocks)
    layer: Dict[Tuple[int, ...], Dict[Optional[int], Dict[Formula, int]]] = {empty: {}}
    for b, (phi, floor) in enumerate(branches):
        fs = layer[empty].setdefault(floor, {})
        fs[phi] = fs.get(phi, 0) | 1 << b
    final: Dict[Tuple[Formula, int], int] = {}  # (residual, last time) -> mask
    while layer:
        nxt_layer: Dict[Tuple[int, ...], Dict[Optional[int], Dict[Formula, int]]] = {}
        for cut, at in layer.items():
            st = frontier_at(cut) if cut != empty else None
            hi, enabled = moves(cut)
            for t, fs in at.items():
                if st is not None:
                    fs = advance_all(st, fs)
                if not enabled:  # the full cut
                    for g, m in fs.items():
                        final[g, t] = final.get((g, t), 0) | m
                shifted: Dict[int, Dict[Formula, int]] = {}  # next time -> {residual: mask}
                for nxt, lo in enabled:
                    at2 = nxt_layer.setdefault(nxt, {})
                    for t2 in range(lo if t is None else max(t, lo), hi + 1):
                        out = shifted.get(t2)
                        if out is None:
                            out = shifted[t2] = shift_all(fs, 0 if t is None else t2 - t)
                        succ = at2.get(t2)
                        if succ is None:
                            at2[t2] = out.copy()
                        else:
                            for g, m in out.items():
                                succ[g] = succ.get(g, 0) | m
        layer = nxt_layer
        count(layer)
    return [{o for o, m in final.items() if m >> b & 1} for b in range(len(branches))]
