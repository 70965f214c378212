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
call that meets a key reads one result; a junction over a state is
stepped operand by operand through it (Roşu & Havelund 2005), and the
junction of the stepped operands is built once per distinct operand
tuple. `advance_all(state, pending, gap)` steps a whole pending set
{formula: mask} over one state and gap, or shifts it when state is None,
in one call, reading the same memo inline; the cut walk makes one such
call per (cut, time, gap). Keys are
interned (see `formula`). `frontier` memoizes the state at a cut the same
way, keyed by its processes' latest payloads. `pipeline.monitor` runs
`evict` at the end of each call, which drops the memos whole, and the
interned objects only they kept alive, once one holds more than
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
from .semantics import State, merge_frontier

# memo entries kept between calls, of formulas and junction operands
# alike; about 0.3 KB each on the criterion-8 log, so at most about 5 MB
REWRITE_LIMIT = 1 << 14

# (state, formula, gap) -> advance(state, formula, gap)
_rewrites: Dict[Tuple[Optional[State], Formula, int], Formula] = {}
_frontiers: Dict[Tuple[State, ...], State] = {}  # latest payloads -> frontier(...)
# (And or Or, *stepped operands) -> their junction; an entry is only made
# with a junction's entry in `_rewrites`, so it never holds more, and
# `evict` need not read its size
_junctions: Dict[Tuple[type, ...], Formula] = {}


def advance(state: Optional[State], f: Formula, gap: int) -> Formula:
    """The normalized f stepped over state, `gap` time units before the
    next state, or shifted by gap when state is None; memoized. A junction
    over a state is the junction of its stepped operands, built once per
    distinct operand tuple; each operand's memo entry is read inline, and
    only a miss recurses."""
    key = (state, f, gap)
    get = _rewrites.get
    out = get(key)
    if out is None:
        if state is not None and isinstance(f, (And, Or)):
            stepped = [type(f)]
            for g in f.args:  # each operand's memo entry, read inline
                h = get((state, g, gap))
                stepped.append(advance(state, g, gap) if h is None else h)
            ops = tuple(stepped)
            out = _junctions.get(ops)
            if out is None:
                out = _junctions[ops] = mk_junction(ops[0], ops[1:])
        else:
            out = shift_anchored(f, gap) if state is None else step(state, f, gap)
        _rewrites[key] = out
    return out


def advance_all(state: Optional[State], pending: Dict[Formula, int], gap: int) -> Dict[Formula, int]:
    """`advance` of each formula of a pending set {formula: mask} over one
    state and gap, a shift by gap when state is None: {residual: OR of the
    masks of the formulas that step to it}, in the order each residual is
    first reached."""
    out: Dict[Formula, int] = {}
    get = _rewrites.get
    for f, m in pending.items():
        g = get((state, f, gap))
        if g is None:
            g = advance(state, f, gap)
        out[g] = out.get(g, 0) | m
    return out


def frontier(latest: Tuple[State, ...]) -> State:
    """The state visible at a cut whose processes' latest payloads are
    `latest` in sorted process order; memoized."""
    st = _frontiers.get(latest)
    if st is None:
        st = _frontiers[latest] = merge_frontier(latest)
    return st


def evict() -> None:
    """Drop the memos when one holds more than REWRITE_LIMIT entries."""
    if max(len(_rewrites), len(_frontiers)) > REWRITE_LIMIT:
        _rewrites.clear()
        _frontiers.clear()
        _junctions.clear()


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
