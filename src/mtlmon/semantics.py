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
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Set

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
