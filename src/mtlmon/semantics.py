"""Finite-trace MTL semantics: the reference evaluator and end-of-trace defaults.

This evaluator is the semantic ground truth for the rewriting engine and
both verdict engines; everything else is differentially tested against it.
"""

from __future__ import annotations

import enum
import types
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Set, Tuple

from .formula import (
    And,
    Atom,
    Eventually,
    FalseF,
    Formula,
    Globally,
    Implies,
    Not,
    Or,
    SumAtom,
    TrueF,
    Until,
    in_interval,
)


class Verdict(enum.Enum):
    TOP = "true"
    BOTTOM = "false"

    def __invert__(self) -> "Verdict":
        return Verdict.BOTTOM if self is Verdict.TOP else Verdict.TOP

    def __str__(self):
        return "⊤" if self is Verdict.TOP else "⊥"


@dataclass(frozen=True, eq=False)
class State:
    """One observed state: propositions that hold plus integer variables.

    Immutable: `variables` is a read-only view of a private copy, because
    states are keys of the process-wide rewrite memo and a state changed
    after a call would corrupt the entries later calls read."""

    props: FrozenSet[str] = frozenset()
    variables: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "props", frozenset(self.props))
        object.__setattr__(self, "variables", types.MappingProxyType(dict(self.variables)))
        # hashed once: the cut walk's rewrite memo keys on frontier states
        key = (self.props, tuple(sorted(self.variables.items())))
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        return (
            isinstance(other, State)
            and self.props == other.props
            and self.variables == other.variables
        )

    def __hash__(self):
        return self._hash

    def holds(self, f: Formula) -> bool:
        """Truth of a propositional Atom / SumAtom in this state."""
        if isinstance(f, Atom):
            return f.name in self.props
        if isinstance(f, SumAtom):
            to_total = self.variables.get(f"to_{f.to_party}", 0)
            from_total = self.variables.get(f"from_{f.from_party}", 0)
            return to_total >= from_total + f.offset
        raise TypeError(f"not a state predicate: {f!r}")


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


def finalize(f: Formula) -> Verdict:
    """Verdict of a residual formula when the computation has ended.

    Pending existential obligations (Eventually/Until, and bare state
    predicates, which would need a state to be read in) default to bottom;
    pending universal obligations (Globally) are vacuously top.
    """
    return Verdict.TOP if _finalize(f) else Verdict.BOTTOM


def _finalize(f: Formula) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, (FalseF, Atom, SumAtom, Until, Eventually)):
        return False
    if isinstance(f, Globally):
        return True
    if isinstance(f, Not):
        return not _finalize(f.operand)
    if isinstance(f, (And, Or)):
        join = all if isinstance(f, And) else any
        return join(map(_finalize, f.args))
    if isinstance(f, Implies):
        return (not _finalize(f.left)) or _finalize(f.right)
    raise TypeError(f"not a formula: {f!r}")


def formula_verdict(f: Formula) -> Optional[Verdict]:
    """Verdict of a constant formula, None if the formula is residual.

    Takes a normalized formula (see `formula`), which is constant exactly
    when it is TRUE or FALSE itself."""
    if isinstance(f, TrueF):
        return Verdict.TOP
    if isinstance(f, FalseF):
        return Verdict.BOTTOM
    return None
