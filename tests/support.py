"""Shared corpus builders for the test suite: seeded random formulas,
traces, and computations with a bound on how many linearizations a
computation admits (keeps exhaustive enumeration affordable); plus the
brute-force references the fast order and boundary search are checked
against, the cut before an event and the payloads the processes hold at
a cut, and the (residual, last time) outcomes of one segment over every
linearization."""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from mtlmon.computation import Computation, ComputationError, Event, build_computation
from mtlmon.formula import (
    And,
    Atom,
    Eventually,
    Formula,
    Globally,
    Implies,
    Interval,
    Not,
    Or,
    Until,
    FALSE,
    TRUE,
    shift_anchored,
    simplify,
)
from mtlmon.oracle import OracleBudgetError, TimedTrace, enumerate_linearizations, progress
from mtlmon.semantics import State

ATOMS = ("p", "q", "r")


def random_interval(rng: random.Random, max_start: int = 5, max_width: int = 8) -> Interval:
    start = rng.randrange(0, max_start + 1)
    if rng.random() < 0.25:
        return Interval(start, None)
    return Interval(start, start + rng.randrange(1, max_width + 1))


def random_formula(rng: random.Random, depth: int, constants: bool = True) -> Formula:
    if depth == 0:
        leaves: List[Formula] = [Atom(rng.choice(ATOMS)) for _ in range(3)]
        if constants:
            leaves += [TRUE, FALSE]
        return rng.choice(leaves)
    k = rng.randrange(7)
    if k == 0:
        return Not(random_formula(rng, depth - 1, constants))
    if k == 1:
        return Or(random_formula(rng, depth - 1, constants),
                  random_formula(rng, depth - 1, constants))
    if k == 2:
        return And(random_formula(rng, depth - 1, constants),
                   random_formula(rng, depth - 1, constants))
    if k == 3:
        return Implies(random_formula(rng, depth - 1, constants),
                       random_formula(rng, depth - 1, constants))
    if k == 4:
        return Until(random_formula(rng, depth - 1, constants), random_interval(rng),
                     random_formula(rng, depth - 1, constants))
    if k == 5:
        return Eventually(random_interval(rng), random_formula(rng, depth - 1, constants))
    return Globally(random_interval(rng), random_formula(rng, depth - 1, constants))


def random_flat_formula(rng: random.Random) -> Formula:
    """Timed operators over propositional operands only."""

    def prop() -> Formula:
        a = Atom(rng.choice(ATOMS))
        return Not(a) if rng.random() < 0.4 else a

    k = rng.randrange(6)
    if k == 0:
        return Until(prop(), random_interval(rng), prop())
    if k == 1:
        return Eventually(random_interval(rng), prop())
    if k == 2:
        return Globally(random_interval(rng), prop())
    if k == 3:
        return Or(Eventually(random_interval(rng), prop()),
                  Globally(random_interval(rng), prop()))
    if k == 4:
        return Implies(prop(), Eventually(random_interval(rng), prop()))
    return And(Until(prop(), random_interval(rng), prop()),
               Eventually(random_interval(rng), prop()))


def random_trace(rng: random.Random, max_len: int = 12) -> TimedTrace:
    n = rng.randrange(1, max_len + 1)
    t = rng.randrange(0, 3)
    states, times = [], []
    for _ in range(n):
        props = frozenset(a for a in ATOMS if rng.random() < 0.4)
        states.append(State(props))
        times.append(t)
        t += rng.randrange(0, 4)
    return TimedTrace(tuple(states), tuple(times))


def random_events(
    rng: random.Random,
    processes: int,
    events: int,
    spread: int = 4,
    prop_rate: float = 0.35,
) -> List[Event]:
    out = []
    for pi in range(processes):
        t = rng.randrange(0, 3)
        count = events // processes + (1 if pi < events % processes else 0)
        for _ in range(count):
            props = frozenset(a for a in ATOMS if rng.random() < prop_rate)
            out.append(Event(f"P{pi + 1}", t, State(props)))
            t += rng.randrange(1, spread + 1)
    return out


def bounded_computation(
    rng: random.Random,
    max_events: int = 8,
    max_processes: int = 3,
    epsilons: Sequence[int] = (1, 2, 3),
    lin_cap: int = 1200,
) -> Computation:
    """Random computation admitting at most lin_cap linearizations."""
    for attempt in range(60):
        epsilon = rng.choice(list(epsilons))
        events = rng.randrange(3, max_events + 1)
        processes = rng.randrange(1, max_processes + 1)
        evs = random_events(rng, processes, events, spread=2 * epsilon + 2 + attempt)
        comp = build_computation(evs, epsilon)
        try:
            sum(1 for _ in enumerate_linearizations(comp, budget=lin_cap))
            return comp
        except OracleBudgetError:
            continue
    raise RuntimeError("could not draw a bounded computation")


def segment_with_messages(
    rng: random.Random,
    max_events: int = 5,
    epsilons: Sequence[int] = (1, 2, 3),
    lin_cap: int = 1200,
) -> Tuple[Computation, range]:
    """A random computation of 8-14 events on 2-3 processes with one or
    two messages, some of whose receives may sort before their sends, and
    a range of 3 to max_events of its event indices with at least two
    events before it, whose restriction admits at most lin_cap
    linearizations."""
    for _ in range(200):
        epsilon = rng.choice(list(epsilons))
        evs = random_events(rng, rng.randrange(2, 4), rng.randrange(8, 15),
                            spread=2 * epsilon + 2)
        for m in range(rng.randrange(1, 3)):
            a = rng.choice(evs)
            # a receive no more than epsilon - 1 before its send
            recvs = [e for e in evs if e.process != a.process
                     and e.local_time > a.local_time - epsilon and e.kind == "local"]
            if a.kind != "local" or not recvs:
                continue
            b = rng.choice(recvs)
            evs[evs.index(a)] = Event(a.process, a.local_time, a.payload, "send", f"m{m}")
            evs[evs.index(b)] = Event(b.process, b.local_time, b.payload, "recv", f"m{m}")
        try:
            comp = build_computation(evs, epsilon)
        except ComputationError:
            continue
        size = rng.randrange(3, max_events + 1)
        start = rng.randrange(2, len(comp) - size + 1)
        consumed = range(start, start + size)
        try:
            sum(1 for _ in enumerate_linearizations(comp.restrict(consumed), budget=lin_cap))
            return comp, consumed
        except OracleBudgetError:
            continue
    raise RuntimeError("could not draw a bounded segment")


def reference_order(
    events: Sequence[Event], epsilon: int
) -> Tuple[Tuple[Event, ...], Tuple[FrozenSet[int], ...], FrozenSet[int]]:
    """The ordering by brute force: every program-order, skew and message
    edge, closed transitively in a cubic loop.

    Returns (events in index order, hb[i] = indices before event i, indices
    that lie on an ordering cycle). Raises ComputationError for the same
    malformed logs as build_computation, except cycles, which it reports.
    """
    ordered = sorted(events, key=lambda e: (e.local_time, e.process))
    n = len(ordered)
    if len({(e.process, e.local_time) for e in ordered}) != n:
        raise ComputationError("duplicate event")
    sends: Dict[str, int] = {}
    recvs: Dict[str, int] = {}
    for i, e in enumerate(ordered):
        if e.kind != "local":
            side = sends if e.kind == "send" else recvs
            if e.msg in side:
                raise ComputationError(f"message id {e.msg!r} used twice")
            side[e.msg] = i
    if set(sends) != set(recvs):
        raise ComputationError("dangling message ids")
    if any(ordered[si].process == ordered[recvs[m]].process for m, si in sends.items()):
        raise ComputationError("message sent and received on one process")

    adj: List[Set[int]] = [set() for _ in range(n)]  # adj[i] = direct successors
    for i, e in enumerate(ordered):
        for j, f in enumerate(ordered):
            if i == j:
                continue
            if e.process == f.process:
                if e.local_time < f.local_time:
                    adj[i].add(j)
            elif f.local_time - e.local_time >= epsilon:
                adj[i].add(j)
    for m, si in sends.items():
        adj[si].add(recvs[m])
    reach = [set(s) for s in adj]
    for k in range(n):
        for i in range(n):
            if k in reach[i]:
                reach[i] |= reach[k]
    preds: List[Set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in reach[i]:
            preds[j].add(i)
    cyclic = frozenset(i for i in range(n) if i in reach[i])
    return tuple(ordered), tuple(frozenset(p) for p in preds), cyclic


def reference_boundaries(events: Sequence[Event], g: int, l: int, epsilon: int) -> List[int]:
    """Exact-mode segment boundaries by a full scan of the events for every
    candidate time: the largest safe cut at or below each target."""

    def safe(theta: int) -> bool:
        below = [e for e in events if e.local_time <= theta]
        above = [e for e in events if e.local_time > theta]
        return all(
            b.process == a.process or a.local_time - b.local_time >= epsilon
            for b in below
            for a in above
        )

    if g == 1:
        return [l]
    out, prev = [], -1
    times = sorted({e.local_time for e in events})
    for j in range(1, g):
        target = (j * l) // g
        out.append(max([prev] + [t for t in times if prev < t <= target and safe(t)]))
        prev = out[-1]
    out.append(max(l, prev))
    return out


def cut_before(comp: Computation, i: int) -> Tuple[int, ...]:
    """The cut of the events indexed below i: each process's count of them."""
    return tuple(sum(j < i for j in s) for s in comp.streams)


def held_at(comp: Computation, cut: Sequence[int]) -> Dict[str, State]:
    """The payload each process holds at a cut: its latest event's, for
    each process with an event in the cut."""
    return {p: comp.events[s[c - 1]].payload
            for p, s, c in zip(comp.processes, comp.streams, cut) if c}


def oracle_pairs(
    sub: Computation,
    phi: Formula,
    floor: Optional[int] = None,
    carry: Optional[Mapping[str, State]] = None,
) -> Set[Tuple[Formula, int]]:
    """The (residual, last time) outcomes of one branch over one segment,
    by rewriting each linearization: an event-free gap between the floor
    and the first time shifts the anchored windows first."""
    out = set()
    for lin in enumerate_linearizations(sub, floor=floor, carry=carry):
        gap = 0 if floor is None else lin.times[0] - floor
        out.add((simplify(progress(lin.trace, shift_anchored(phi, gap))), lin.times[-1]))
    return out
