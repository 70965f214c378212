"""The reference semantics the tests check both engines against: the
finite-trace evaluator, the exhaustive verdict set it gives over every
linearization, a brute-force consistent-cut test and the conforming
two-party swap vector. mtlmon itself runs none of this; what the engines
share with it (states, verdicts, the enumeration of linearizations and
the fold of the rewrite over a trace) is imported from the package.
"""

from __future__ import annotations

from typing import Set

from mtlmon.casegen import ExecutionVector
from mtlmon.computation import Computation
from mtlmon.formula import (
    And,
    Atom,
    Eventually,
    FalseF,
    Formula,
    Globally,
    Implies,
    Interval,
    Not,
    Or,
    SumAtom,
    TrueF,
    Until,
)
from mtlmon.oracle import DEFAULT_BUDGET, TimedTrace, enumerate_linearizations
from mtlmon.semantics import State, Verdict


def in_interval(tau_i: int, tau_0: int, iv: Interval) -> bool:
    """True iff the elapsed time tau_i - tau_0 falls in the half-open interval."""
    return (tau_i - tau_0) in iv


def trace_of(pairs) -> TimedTrace:
    """Build a trace from (props, time) or (props, vars, time) tuples."""
    states, times = [], []
    for item in pairs:
        if len(item) == 2:
            props, t = item
            states.append(State(frozenset(props)))
        else:
            props, variables, t = item
            states.append(State(frozenset(props), dict(variables)))
        times.append(t)
    return TimedTrace(tuple(states), tuple(times))


def eval_finite(trace: TimedTrace, f: Formula, i: int = 0) -> Verdict:
    """Two-valued truth of f at position i of a finite timed trace.

    Until holds iff some position j >= i lands in the interval (measured
    from time i), satisfies the right operand, and the left operand holds
    at every position in [i, j). Unfulfilled eventualities default to
    bottom; vacuous universal obligations default to top.
    """
    if not 0 <= i < len(trace):
        raise IndexError(f"position {i} outside trace of length {len(trace)}")
    return Verdict.TOP if _eval(trace, f, i) else Verdict.BOTTOM


def _eval(trace: TimedTrace, f: Formula, i: int) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, (Atom, SumAtom)):
        return trace.states[i].holds(f)
    if isinstance(f, Not):
        return not _eval(trace, f.operand, i)
    if isinstance(f, (And, Or)):
        join = all if isinstance(f, And) else any
        return join(_eval(trace, g, i) for g in f.args)
    if isinstance(f, Implies):
        return (not _eval(trace, f.left, i)) or _eval(trace, f.right, i)
    if isinstance(f, Until):
        t0 = trace.times[i]
        for j in range(i, len(trace)):
            if in_interval(trace.times[j], t0, f.interval) and _eval(trace, f.right, j):
                if all(_eval(trace, f.left, k) for k in range(i, j)):
                    return True
        return False
    if isinstance(f, Eventually):
        t0 = trace.times[i]
        return any(
            in_interval(trace.times[j], t0, f.interval) and _eval(trace, f.operand, j)
            for j in range(i, len(trace))
        )
    if isinstance(f, Globally):
        t0 = trace.times[i]
        return all(
            _eval(trace, f.operand, j)
            for j in range(i, len(trace))
            if in_interval(trace.times[j], t0, f.interval)
        )
    raise TypeError(f"not a formula: {f!r}")


def oracle_verdicts(
    c: Computation, f: Formula, budget: int = DEFAULT_BUDGET
) -> Set[Verdict]:
    """Exact verdict set: finite-trace truth over every linearization."""
    out: Set[Verdict] = set()
    for lin in enumerate_linearizations(c, budget=budget):
        out.add(eval_finite(lin.trace, f, 0))
    return out


def is_consistent_cut_indices(c: Computation, indices: Set[int]) -> bool:
    """True iff the index set is downward closed under the ordering: each
    event's own process contributes more events than precede it there, and
    every other process at least as many as its clock names."""
    col = {p: k for k, p in enumerate(c.processes)}
    counts = [0] * len(col)
    for i in indices:
        counts[col[c.events[i].process]] += 1
    for i in indices:
        k = col[c.events[i].process]
        if c.clock[i][k] >= counts[k] or any(v > h for v, h in zip(c.clock[i], counts)):
            return False
    return True


def conforming_two_party_vector() -> ExecutionVector:
    """Every step of the two-party swap attempted, each one on time."""
    return ExecutionVector.from_string("101010101010")
