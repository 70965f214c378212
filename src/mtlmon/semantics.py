"""States, verdicts and end-of-trace defaults: what every verdict engine
reads at a cut and when the computation ends.

A `State` is what the processes show at one cut (`merge_frontier` builds
it from each process's latest event); `finalize` gives the verdict of a
residual formula once no state follows. The finite-trace evaluator the
engines are tested against lives with the tests (`tests/reference.py`).
"""

from __future__ import annotations

import enum
import types
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set

from .formula import (
    And,
    Atom,
    Eventually,
    FalseF,
    Formula,
    Globally,
    Implies,
    Interned,
    Not,
    Or,
    SumAtom,
    TrueF,
    Until,
)


class Verdict(enum.Enum):
    TOP = "true"
    BOTTOM = "false"

    def __invert__(self) -> "Verdict":
        return Verdict.BOTTOM if self is Verdict.TOP else Verdict.TOP

    def __str__(self):
        return "⊤" if self is Verdict.TOP else "⊥"


@dataclass(frozen=True, eq=False, init=False)
class State(Interned):
    """One observed state: propositions that hold plus integer variables.

    Interned like a formula (see `formula`) and keyed by (props, sorted
    variable items). Immutable, as states key the process-wide rewrite
    memo: `variables` is a read-only view of a private copy, in key order."""

    props: FrozenSet[str]
    variables: Mapping[str, int]

    def __new__(cls, props=frozenset(), variables=types.MappingProxyType({})):
        return Interned.__new__(cls, frozenset(props), tuple(sorted(variables.items())))

    def _init(self, props, items):
        vars(self).update(props=props, variables=types.MappingProxyType(dict(items)))

    def __reduce__(self):
        return State, (self.props, dict(self.variables))

    def holds(self, f: Formula) -> bool:
        """Truth of a propositional Atom / SumAtom in this state."""
        if isinstance(f, Atom):
            return f.name in self.props
        if isinstance(f, SumAtom):
            to_total = self.variables.get(f"to_{f.to_party}", 0)
            from_total = self.variables.get(f"from_{f.from_party}", 0)
            return to_total >= from_total + f.offset
        raise TypeError(f"not a state predicate: {f!r}")


def merge_frontier(latest: Iterable[State]) -> State:
    """State visible at a cut: union of per-process latest propositions,
    key-wise sum of per-process latest variable totals, in any order."""
    props: Set[str] = set()
    variables: Dict[str, int] = {}
    for st in latest:
        props |= st.props
        for k, v in st.variables.items():
            variables[k] = variables.get(k, 0) + v
    return State(frozenset(props), variables)


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
