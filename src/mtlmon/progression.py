"""Formula rewriting over a consumed finite trace, one state at a time.

`step(state, f, elapsed)` returns a formula over the continuation such
that f holds on (state . continuation) iff the result holds on the
continuation, whose first state comes `elapsed` time units after `state`.
`progress(trace, f)` is the left fold of `step` over the trace: each state
is followed by the gap to the next one, and the last state by whatever
remains of `elapsed` (by default nothing, so the residual is anchored at
the last observed time). Callers that know how much time passes before
the continuation actually starts pass it via `elapsed` (always >= span),
so no elapsed time is lost across a gap.

The one-state rewrite dispatches on formula shape:

  * predicates evaluate in the state;
  * negation distributes; binary connectives fold their operand rewrites;
  * Globally: the operand's rewrite when the window is open now, joined to
    a residual Globally over the interval shifted by `elapsed`;
  * Eventually: the disjunctive dual;
  * Until: the right operand's rewrite when the window is open now, or the
    left operand's rewrite together with the residual Until.

Equal timestamps need no special case: each state is its own step, so a
later-position witness still requires the left operand at every earlier
position. Because the rewrite is one state at a time, it composes:
progressing a concatenation equals progressing the suffix after the
prefix, as formulas. Outputs are built from the folding constructors, so a
normalized input gives a normalized output; `progress` normalizes once up
front and the steps never normalize again.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from .formula import (
    Atom,
    And,
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
    FALSE,
    TRUE,
    mk_and,
    mk_eventually,
    mk_globally,
    mk_implies,
    mk_not,
    mk_or,
    mk_until,
    simplify,
)
from .semantics import State, TimedTrace


def progress(trace: TimedTrace, f: Formula, elapsed: Optional[int] = None) -> Formula:
    """Rewrite f after consuming the whole trace (which must be non-empty)."""
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
        f = step(state, f, gap, trace.alphabet)
    return f


def step(
    state: State,
    f: Formula,
    elapsed: int,
    alphabet: Optional[FrozenSet[str]] = None,
) -> Formula:
    """Rewrite a normalized formula over one state, with `elapsed` time
    units until the continuation's first state."""
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, (Atom, SumAtom)):
        return TRUE if state.holds(f, alphabet) else FALSE
    if isinstance(f, Not):
        return mk_not(step(state, f.operand, elapsed, alphabet))
    if isinstance(f, Or):
        return mk_or(step(state, f.left, elapsed, alphabet), step(state, f.right, elapsed, alphabet))
    if isinstance(f, And):
        return mk_and(step(state, f.left, elapsed, alphabet), step(state, f.right, elapsed, alphabet))
    if isinstance(f, Implies):
        return mk_implies(
            step(state, f.left, elapsed, alphabet), step(state, f.right, elapsed, alphabet)
        )
    iv = f.interval
    residual = iv.shift(elapsed)
    if isinstance(f, Eventually):
        later = mk_eventually(residual, f.operand)
        if 0 not in iv:
            return later
        return mk_or(step(state, f.operand, elapsed, alphabet), later)
    if isinstance(f, Globally):
        later = mk_globally(residual, f.operand)
        if 0 not in iv:
            return later
        return mk_and(step(state, f.operand, elapsed, alphabet), later)
    if isinstance(f, Until):
        later = mk_and(step(state, f.left, elapsed, alphabet), mk_until(f.left, residual, f.right))
        if 0 not in iv:
            return later
        return mk_or(step(state, f.right, elapsed, alphabet), later)
    raise TypeError(f"not a formula: {f!r}")
