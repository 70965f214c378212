"""Exhaustive oracle: every linearization of a (small) computation that
respects the ordering and the skew windows, as a timed trace, and
`progress`, which folds `progression.step` and `shift_anchored` over a trace.

Exists for correctness, not performance: the tests check both verdict
engines against it and against `tests/reference.py`. The pipeline and the
solver engine import `enumerate_linearizations` and `progress` only for
the benchmark's tracer to wrap; neither engine calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from .computation import Computation, Event, time_window
from .formula import Formula, shift_anchored, simplify
from .progression import step
from .semantics import State, merge_frontier

DEFAULT_BUDGET = 10**6


class OracleBudgetError(RuntimeError):
    """Enumeration exceeded its cap; a truncated oracle is not an oracle."""


@dataclass(frozen=True)
class TimedTrace:
    """A finite sequence of states with non-decreasing integer timestamps."""

    states: Tuple[State, ...]
    times: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "times", tuple(self.times))
        if len(self.states) != len(self.times):
            raise ValueError("states and times must have equal length")
        for a, b in zip(self.times, self.times[1:]):
            if b < a:
                raise ValueError(f"times must be non-decreasing, got {a} then {b}")
        if any(t < 0 for t in self.times):
            raise ValueError("times must be non-negative")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def span(self) -> int:
        return self.times[-1] - self.times[0]


def progress(trace: TimedTrace, f: Formula, elapsed: Optional[int] = None) -> Formula:
    """Rewrite f after consuming the whole trace (which must be non-empty).

    Each state is followed by the gap to the next one, and the last state
    by what remains of `elapsed` (>= span; by default nothing, so the
    residual is anchored at the last observed time)."""
    if len(trace) == 0:
        raise ValueError("cannot progress over an empty trace")
    span = trace.span
    if elapsed is None:
        elapsed = span
    if elapsed < span:
        raise ValueError(f"elapsed {elapsed} below observed span {span}")
    times = trace.times
    gaps = [b - a for a, b in zip(times, times[1:])]
    gaps.append(elapsed - span)
    f = simplify(f)  # residual operands are reused, so normalize up front
    for state, gap in zip(trace.states, gaps):
        f = shift_anchored(step(state, f), gap)
    return f


@dataclass(frozen=True)
class Linearization:
    """One admissible total order with one timestamp assignment."""

    events: Tuple[Event, ...]
    times: Tuple[int, ...]
    trace: TimedTrace


def enumerate_linearizations(
    c: Computation,
    floor: Optional[int] = None,
    carry: Optional[Mapping[str, State]] = None,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[Linearization]:
    """Yield every (cut order, timestamp assignment) pair of the computation.

    Each event's time is drawn from its skew window, the sequence of times
    is non-decreasing (and >= floor when given), and every prefix of the
    order is a consistent cut. Joint enumeration prunes monotonicity
    violations at each extension step. Raises OracleBudgetError beyond the
    cap rather than silently truncating.
    """
    n = len(c)
    if n == 0:
        return
    base_latest: Dict[str, State] = dict(carry) if carry else {}
    windows = [time_window(e, c.epsilon) for e in c.events]
    yielded = 0

    order: List[int] = []
    times: List[int] = []
    states: List[State] = []
    in_cut: Set[int] = set()
    latest: Dict[str, State] = dict(base_latest)

    def extensions() -> List[int]:
        return [i for i in range(n) if i not in in_cut and c.hb[i] <= in_cut]

    def walk() -> Iterator[Linearization]:
        nonlocal yielded
        if len(order) == n:
            yielded += 1
            if yielded > budget:
                raise OracleBudgetError(f"more than {budget} linearizations")
            evs = tuple(c.events[i] for i in order)
            trace = TimedTrace(tuple(states), tuple(times))
            yield Linearization(evs, tuple(times), trace)
            return
        lo = times[-1] if times else (floor if floor is not None else 0)
        for i in extensions():
            e = c.events[i]
            prev_latest = latest.get(e.process)
            for t in windows[i]:
                if t < lo:
                    continue
                order.append(i)
                times.append(t)
                in_cut.add(i)
                latest[e.process] = e.payload
                states.append(merge_frontier(latest.values()))
                yield from walk()
                states.pop()
                if prev_latest is None:
                    del latest[e.process]
                else:
                    latest[e.process] = prev_latest
                in_cut.discard(i)
                times.pop()
                order.pop()

    yield from walk()


def oracle_progress(c: Computation, f: Formula, budget: int = DEFAULT_BUDGET) -> Set[Formula]:
    """Set of rewritten formulas (constants included) over every
    linearization of a computation."""
    out: Set[Formula] = set()
    for lin in enumerate_linearizations(c, budget=budget):
        out.add(progress(lin.trace, f))
    return out
