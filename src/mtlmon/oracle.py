"""Exhaustive verdict oracle: enumerate every linearization of a (small)
computation consistent with the ordering and the skew windows, evaluate or
rewrite on each, and collect the exact outcome set.

Exists for correctness, not performance: both verdict engines (the
cut-lattice walk in the pipeline and the solver-backed enumeration) are
differentially tested against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from .computation import Computation, Event, time_window
from .formula import Formula, simplify
from .progression import progress
from .semantics import State, TimedTrace, Verdict, eval_finite

DEFAULT_BUDGET = 10**6


class OracleBudgetError(RuntimeError):
    """Enumeration exceeded its cap; a truncated oracle is not an oracle."""


Carry = Tuple[Tuple[str, State], ...]  # per-process latest payload, sorted by process


def merge_frontier(latest: Mapping[str, State]) -> State:
    """State visible at a cut: union of per-process latest propositions,
    key-wise sum of per-process latest variable totals."""
    props: Set[str] = set()
    variables: Dict[str, int] = {}
    for proc in sorted(latest):
        st = latest[proc]
        props |= st.props
        for k, v in st.variables.items():
            variables[k] = variables.get(k, 0) + v
    return State(frozenset(props), variables)


@dataclass(frozen=True)
class Linearization:
    """One admissible total order with one timestamp assignment."""

    events: Tuple[Event, ...]
    times: Tuple[int, ...]
    trace: TimedTrace
    final_latest: Carry

    @property
    def cuts(self) -> List[frozenset]:
        """The induced growing cut sequence (without the initial empty cut)."""
        out, acc = [], set()
        for e in self.events:
            acc.add(e)
            out.append(frozenset(acc))
        return out


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
            final = tuple(sorted(latest.items()))
            yield Linearization(evs, tuple(times), trace, final)
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
                states.append(merge_frontier(latest))
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


def oracle_verdicts(
    c: Computation, f: Formula, budget: int = DEFAULT_BUDGET
) -> Set[Verdict]:
    """Exact verdict set: finite-trace truth over every linearization."""
    out: Set[Verdict] = set()
    for lin in enumerate_linearizations(c, budget=budget):
        out.add(eval_finite(lin.trace, f, 0))
    return out


def oracle_progress(
    c: Computation,
    f: Formula,
    floor: Optional[int] = None,
    carry: Optional[Mapping[str, State]] = None,
    budget: int = DEFAULT_BUDGET,
) -> Set[Formula]:
    """Set of rewritten formulas (constants included) over every
    linearization of a segment."""
    out: Set[Formula] = set()
    for lin in enumerate_linearizations(c, floor=floor, carry=carry, budget=budget):
        out.add(simplify(progress(lin.trace, f)))
    return out
