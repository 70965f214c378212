"""Formula rewriting over observed states, one state at a time.

`step(state, f)` returns a formula that holds on a continuation starting
at `state`'s own time iff f holds on (state . continuation). Time passes
only through `formula.shift_anchored`, by the gap to the next state; the
fold of both over a whole finite trace is `oracle.progress`.

The one-state rewrite dispatches on formula shape:

  * predicates evaluate in the state;
  * negation distributes; `And`, `Or` and `->` fold the rewrites of
    their operands;
  * Globally: the operand's rewrite when the window is open now, joined to
    the Globally itself, which still watches the rest of its window;
  * Eventually: the disjunctive dual;
  * Until: the right operand's rewrite when the window is open now, or the
    left operand's rewrite together with the Until itself.

Equal timestamps need no special case: each state is its own step, so a
later-position witness still requires the left operand at every earlier
position. Because the rewrite is one state at a time, it composes:
progressing a concatenation equals progressing the suffix after the
prefix, as formulas. Outputs are built from the folding constructors, so a
normalized input gives a normalized output, and `step` never normalizes.

`advance(state, f)` is the rewrite both engines run: `step` through one
memo per process keyed by (state, formula), so every branch, segment,
engine and later call that meets a key reads one result; a junction is
rewritten operand by operand through it (Roşu & Havelund 2005), and the
junction of the rewritten operands is built once per distinct operand
tuple. `advance_all(state, pending)` steps a whole pending set {formula:
mask} in one call, once per (cut, time) of the cut walk, and
`shift_all(pending, gap)` shifts one through the same memo, keyed by
(gap, formula), once per successor time. Keys are
interned (see `formula`). `frontier` memoizes the state at a cut the same
way, keyed by its processes' latest payloads. `pipeline.monitor` runs
`evict` at the end of each call, which drops the memos whole, and the
interned objects only they kept alive, once one holds more than
REWRITE_LIMIT entries, so within one call each key is computed once.
"""

from __future__ import annotations

from typing import Dict, Tuple

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
    mk_implies,
    mk_junction,
    mk_not,
    mk_or,
    shift_anchored,
)
from .semantics import State, merge_frontier

# memo entries kept between calls, of formulas and junction operands
# alike; about 0.3 KB each on the criterion-8 log, so at most about 5 MB
REWRITE_LIMIT = 1 << 14

# (state, formula) -> its step, and (gap > 0, formula) -> its shift
_rewrites: Dict[Tuple[object, Formula], Formula] = {}
_frontiers: Dict[Tuple[State, ...], State] = {}  # latest payloads -> frontier(...)
# (And or Or, *rewritten operands) -> their junction; an entry is only made
# with a junction's entry in `_rewrites`, so it never holds more, and
# `evict` need not read its size
_junctions: Dict[Tuple[type, ...], Formula] = {}


def advance(state: State, f: Formula) -> Formula:
    """The normalized f stepped over state; memoized."""
    return _rewrite(state, f, step)


def _shift(gap: int, f: Formula) -> Formula:
    return shift_anchored(f, gap)


def _rewrite(by, f: Formula, leaf) -> Formula:
    """`leaf(by, f)`, memoized under (by, f). A junction is the junction of
    its rewritten operands, built once per distinct operand tuple; each
    operand's memo entry is read inline, and only a miss recurses."""
    key = (by, f)
    get = _rewrites.get
    out = get(key)
    if out is None:
        if isinstance(f, (And, Or)):
            ops = [type(f)]
            for g in f.args:  # each operand's memo entry, read inline
                h = get((by, g))
                ops.append(_rewrite(by, g, leaf) if h is None else h)
            ops = tuple(ops)
            out = _junctions.get(ops)
            if out is None:
                out = _junctions[ops] = mk_junction(ops[0], ops[1:])
        else:
            out = leaf(by, f)
        _rewrites[key] = out
    return out


def advance_all(state: State, pending: Dict[Formula, int]) -> Dict[Formula, int]:
    """`advance` of each formula of a pending set {formula: mask} over one
    state: {residual: OR of the masks of the formulas that step to it}, in
    the order each residual is first reached."""
    return _rewrite_all(state, pending, step)


def shift_all(pending: Dict[Formula, int], gap: int) -> Dict[Formula, int]:
    """`shift_anchored` of each formula of a pending set by gap, memoized
    and folded as in `advance_all`; the set itself when gap is 0."""
    return _rewrite_all(gap, pending, _shift) if gap else pending


def _rewrite_all(by, pending: Dict[Formula, int], leaf) -> Dict[Formula, int]:
    out: Dict[Formula, int] = {}
    get = _rewrites.get
    for f, m in pending.items():
        g = get((by, f))
        if g is None:
            g = _rewrite(by, f, leaf)
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


def step(state: State, f: Formula) -> Formula:
    """Rewrite a normalized formula over one state, its windows still
    anchored at the state's time."""
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, (Atom, SumAtom)):
        return TRUE if state.holds(f) else FALSE
    if isinstance(f, Not):
        return mk_not(step(state, f.operand))
    if isinstance(f, (And, Or)):
        return mk_junction(type(f), [step(state, g) for g in f.args])
    if isinstance(f, Implies):
        return mk_implies(step(state, f.left), step(state, f.right))
    if isinstance(f, Eventually):
        return mk_or(step(state, f.operand), f) if 0 in f.interval else f
    if isinstance(f, Globally):
        return mk_and(step(state, f.operand), f) if 0 in f.interval else f
    if isinstance(f, Until):
        later = mk_and(step(state, f.left), f)
        return mk_or(step(state, f.right), later) if 0 in f.interval else later
    raise TypeError(f"not a formula: {f!r}")
