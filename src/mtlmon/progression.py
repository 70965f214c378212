"""Formula rewriting over observed states, one state at a time.

`step(state, f, elapsed)` returns a formula over the continuation such
that f holds on (state . continuation) iff the result holds on the
continuation, whose first state comes `elapsed` time units after `state`.
The fold of `step` over a whole finite trace is `oracle.progress`.

The one-state rewrite dispatches on formula shape:

  * predicates evaluate in the state;
  * negation distributes; `And`, `Or` and `->` fold the rewrites of
    their operands;
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
normalized input gives a normalized output, and `step` never normalizes.

`advance(state, f, gap)` is the rewrite both engines run: `step`, or
`shift_anchored(f, gap)` when state is None, through one memo per process
keyed by (state, formula, gap), so every branch, segment, engine and later
call that meets a key reads one result. States and results enter it
through `shared`, one object per equal value. `pipeline.monitor` runs
`evict` at the end of each call, which drops the memo whole above
REWRITE_LIMIT entries, so within one call each key is computed once.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

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
    mk_junction,
    mk_not,
    mk_or,
    mk_until,
    shift_anchored,
)
from .semantics import State

# memo entries kept between calls; about 0.3 KB each on the criterion-8
# log, so at most about 5 MB stay alive between calls
REWRITE_LIMIT = 1 << 14

# (state, formula, gap) -> advance(state, formula, gap)
_rewrites: Dict[Tuple[Optional[State], Formula, int], Formula] = {}
_terms: Dict[object, object] = {}  # one object per equal state or formula


def shared(x):
    """The first object equal to x that the memo has met, else x."""
    return _terms.setdefault(x, x)


def advance(state: Optional[State], f: Formula, gap: int) -> Formula:
    """The normalized f stepped over state, `gap` time units before the
    next state, or shifted by gap when state is None; memoized."""
    key = (state, f, gap)
    out = _rewrites.get(key)
    if out is None:
        g = shift_anchored(f, gap) if state is None else step(state, f, gap)
        out = _rewrites[key] = shared(g)
    return out


def evict() -> None:
    """Drop the memo when it holds more than REWRITE_LIMIT entries."""
    if len(_rewrites) > REWRITE_LIMIT:
        _rewrites.clear()
        _terms.clear()


def step(state: State, f: Formula, elapsed: int) -> Formula:
    """Rewrite a normalized formula over one state, with `elapsed` time
    units until the continuation's first state."""
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, (Atom, SumAtom)):
        return TRUE if state.holds(f) else FALSE
    if isinstance(f, Not):
        return mk_not(step(state, f.operand, elapsed))
    if isinstance(f, (And, Or)):
        return mk_junction(type(f), [step(state, g, elapsed) for g in f.args])
    if isinstance(f, Implies):
        return mk_implies(step(state, f.left, elapsed), step(state, f.right, elapsed))
    iv = f.interval
    residual = iv.shift(elapsed)
    if isinstance(f, Eventually):
        later = mk_eventually(residual, f.operand)
        if 0 not in iv:
            return later
        return mk_or(step(state, f.operand, elapsed), later)
    if isinstance(f, Globally):
        later = mk_globally(residual, f.operand)
        if 0 not in iv:
            return later
        return mk_and(step(state, f.operand, elapsed), later)
    if isinstance(f, Until):
        later = mk_and(step(state, f.left, elapsed), mk_until(f.left, residual, f.right))
        if 0 not in iv:
            return later
        return mk_or(step(state, f.right, elapsed), later)
    raise TypeError(f"not a formula: {f!r}")
