"""Distributed computations: events, the skew-bounded happened-before order
as per-event vector clocks, consistent cuts and timestamp windows.

Two events on different processes are ordered whenever their local
timestamps differ by at least the maximum clock skew epsilon; within one
process events are totally ordered; message sends precede their receives.
Restricted to one process, the events ordered before any event form a
prefix of that process's stream, so the order is stored as vector clocks
(Fidge 1988; Mattern 1989): clock[i][k] counts the events of the k-th
process that happened before event i.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import sub
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .errors import InputError
from .semantics import State


class ComputationError(InputError):
    """The event log cannot form a valid computation (duplicate timestamps,
    dangling message ids, or an ordering cycle)."""


@dataclass(frozen=True)
class Event:
    process: str
    local_time: int
    payload: State = State()
    kind: str = "local"  # local | send | recv
    msg: Optional[str] = None

    def __post_init__(self):
        if self.local_time < 0:
            raise ValueError("local_time must be non-negative")
        if self.kind not in ("local", "send", "recv"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if (self.kind != "local") == (self.msg is None):
            raise ValueError("msg id is required exactly for send/recv events")

    def __str__(self):
        return f"{self.process}@{self.local_time}"


def time_window(e: Event, epsilon: int) -> range:
    """All real times the event may have occurred at, given skew < epsilon.

    The closed integer range [max(0, sigma-epsilon+1), sigma+epsilon-1];
    for epsilon=1 the window is the singleton {sigma}.
    """
    if epsilon < 1:
        raise ValueError("epsilon must be a positive integer")
    sigma = e.local_time
    return range(max(0, sigma - epsilon + 1), sigma + epsilon)


@dataclass(frozen=True)
class Computation:
    """Immutable event set with its happened-before order as vector clocks."""

    events: Tuple[Event, ...]  # indexed by event_index
    epsilon: int
    # clock[i][k] = number of events of processes[k] that happened before event i
    clock: Tuple[Tuple[int, ...], ...]

    def __len__(self):
        return len(self.events)

    @cached_property
    def processes(self) -> Tuple[str, ...]:
        return tuple(sorted({e.process for e in self.events}))

    @cached_property
    def streams(self) -> Tuple[Tuple[int, ...], ...]:
        """Event indices of each process in program order, by clock column."""
        col = {p: k for k, p in enumerate(self.processes)}
        out: List[List[int]] = [[] for _ in self.processes]
        for i, e in enumerate(self.events):
            out[col[e.process]].append(i)
        return tuple(tuple(s) for s in out)

    @cached_property
    def hb(self) -> Tuple[FrozenSet[int], ...]:
        """hb[i] = indices that happened before event i (read-only view of
        the clocks, for the exhaustive oracle and the tests)."""
        return tuple(
            frozenset(j for s, c in zip(self.streams, row) for j in s[:c])
            for row in self.clock
        )

    @property
    def length(self) -> int:
        """Computation length: the maximum local timestamp."""
        return max((e.local_time for e in self.events), default=0)

    def restrict(self, indices: Iterable[int]) -> "Computation":
        """Sub-computation induced by a subset of event indices. Both engines
        read segments through `segment_tables`; only the tests' references
        and the benchmark's span tracer call this."""
        keep = sorted(set(indices))
        col = {p: k for k, p in enumerate(self.processes)}
        # stream positions of the kept events, and their new indices, per
        # process; an event's own clock column is its position in its stream
        kept: Dict[int, List[int]] = {}
        streams: Dict[int, List[int]] = {}
        for j, i in enumerate(keep):
            k = col[self.events[i].process]
            kept.setdefault(k, []).append(self.clock[i][k])
            streams.setdefault(k, []).append(j)
        cols = sorted(kept)
        clock = tuple(tuple(bisect_left(kept[k], self.clock[i][k]) for k in cols)
                      for i in keep)
        sub = Computation(tuple(self.events[i] for i in keep), self.epsilon, clock)
        vars(sub).update(  # the cached properties, from the grouping above
            processes=tuple(self.processes[k] for k in cols),
            streams=tuple(tuple(streams[k]) for k in cols))
        return sub


class Segment(NamedTuple):
    """The events indexed by `consumed`, a range of consecutive indices, as
    slices of the computation. Events sort by (time, process), so the range
    holds one block of each process's stream, from the cut before its first
    event, its base cut, to the cut before the next segment's, its end cut.
    Cuts count each process's events, in the columns of `comp.processes`."""

    comp: Computation
    consumed: range
    base: Tuple[int, ...]
    end: Tuple[int, ...]
    blocks: List[Tuple[int, ...]]  # each process's event indices in the range
    # enabling[k][c]: the c-th event of process k's clock clamped to the end
    # cut, less the base cut; clamped at 0, the clocks `Computation.restrict` gives
    enabling: List[List[Tuple[int, ...]]]
    held: List[Optional[State]]  # each process's payload at the base cut, or None


def segment_tables(comp: Computation, consumed: range) -> Segment:
    """The tables both engines read of one segment. The held payloads depend
    only on which events earlier segments consumed, not on their order."""
    events, clock, streams = comp.events, comp.clock, comp.streams
    base = tuple(bisect_left(s, consumed.start) for s in streams)
    end = tuple(bisect_left(s, consumed.stop) for s in streams)
    blocks = [s[b:e] for s, b, e in zip(streams, base, end)]
    enabling = [[tuple(map(sub, map(min, clock[i], end), base)) for i in blk] for blk in blocks]
    held = [events[s[b - 1]].payload if b else None for s, b in zip(streams, base)]
    return Segment(comp, consumed, base, end, blocks, enabling, held)


def build_computation(events: Sequence[Event], epsilon: int) -> Computation:
    """Order the events by program order, messages, and the skew rule.

    Events are indexed deterministically by (local_time, process). Each
    event's clock is the componentwise max over its direct predecessors:
    the previous event of its process, the latest event of every other
    process at least epsilon earlier (one bisect per process), and the
    matching send of a receive, so the cost is O(n·P·log n). The clocks
    are built in one pass in sorted order, where every direct predecessor
    comes first except a send that sorts after its own receive: an event
    that waits on such a send, directly or through another waiting event,
    is deferred and finished depth-first once the send is done. Raises
    ComputationError for duplicate
    (process, local_time) pairs, dangling or reused message ids, and
    ordering cycles (a physically impossible log).
    """
    if epsilon < 1:
        raise ValueError("epsilon must be a positive integer")
    ordered = sorted(events, key=lambda e: (e.local_time, e.process))
    n = len(ordered)

    seen_slots = set()
    for e in ordered:
        slot = (e.process, e.local_time)
        if slot in seen_slots:
            raise ComputationError(f"duplicate event at {e.process}@{e.local_time}")
        seen_slots.add(slot)

    sends: Dict[str, int] = {}
    recvs: Dict[str, int] = {}
    for i, e in enumerate(ordered):
        if e.kind == "send":
            if e.msg in sends:
                raise ComputationError(f"message id {e.msg!r} sent twice")
            sends[e.msg] = i
        elif e.kind == "recv":
            if e.msg in recvs:
                raise ComputationError(f"message id {e.msg!r} received twice")
            recvs[e.msg] = i
    if set(sends) != set(recvs):
        dangling = set(sends) ^ set(recvs)
        raise ComputationError(f"dangling message ids: {sorted(dangling)}")
    for m, si in sends.items():
        if ordered[si].process == ordered[recvs[m]].process:
            raise ComputationError(f"message {m!r} sent and received on one process")

    procs = sorted({e.process for e in ordered})
    col = {p: k for k, p in enumerate(procs)}
    cols = [col[e.process] for e in ordered]
    streams: List[List[int]] = [[] for _ in procs]
    own: List[int] = []  # each event's position in its process's stream
    for i, k in enumerate(cols):
        own.append(len(streams[k]))
        streams[k].append(i)
    times = [[ordered[i].local_time for i in s] for s in streams]
    send_of = {recvs[m]: si for m, si in sends.items()}

    counted: List[Optional[List[int]]] = [None] * n  # clock[i], event i counted too
    clock: List[Optional[Tuple[int, ...]]] = [None] * n
    # a deferred event's direct predecessors, while one is unfinished, and
    # the deferred events that wait on each unfinished event
    deferred: Dict[int, List[int]] = {}
    waiting: Dict[int, List[int]] = {}
    zero = [0] * len(procs)
    for i, e in enumerate(ordered):
        k = cols[i]
        ps = [streams[k][own[i] - 1]] if own[i] else []  # direct predecessors
        for q, ts in enumerate(times):
            if q != k:
                r = bisect_right(ts, e.local_time - epsilon)
                if r:
                    ps.append(streams[q][r - 1])
        if i in send_of:
            ps.append(send_of[i])
        todo = [(i, ps)]
        while todo:
            j, ps = todo.pop()
            rows = [counted[p] for p in ps]
            if None in rows:  # a send past its receive, or an event waiting on one
                deferred[j] = ps
                waiting.setdefault(ps[rows.index(None)], []).append(j)
                continue
            vec = list(map(max, *rows)) if len(rows) > 1 else (rows[0] if rows else zero)[:]
            clock[j] = tuple(vec)
            vec[cols[j]] += 1
            counted[j] = vec
            if j in waiting:
                todo.extend((w, deferred.pop(w)) for w in waiting.pop(j))
    if deferred:
        # every event left waits on an unfinished direct predecessor, so
        # walking back through them must close a cycle
        seen: Set[int] = set()
        i = min(deferred)
        while i not in seen:
            seen.add(i)
            i = next(p for p in deferred[i] if clock[p] is None)
        raise ComputationError(
            f"ordering cycle through {ordered[i]}: log is physically impossible"
        )
    return Computation(tuple(ordered), epsilon, tuple(clock))
