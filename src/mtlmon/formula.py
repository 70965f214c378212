"""MTL formula AST: half-open integer intervals, connectives, timed operators.

All nodes are frozen dataclasses, hash-consed (Filliâtre & Conchon 2006):
a class call returns the one live node of its class and field values, so
`==` and `hash` are object identity, evaluated in C, and the rewrite memo
and the branch sets key on whole formulas at the cost of an address. The
intern table holds nodes weakly; copies and pickles are the interned node.
No output may follow the order of a set of formulas, since it follows
addresses. A node caches its text, by which branches are sorted.

Normal form. Construction goes through the smart constructors (`mk_not`,
`mk_or`, ...), which constant-fold; `mk_and` and `mk_or` also splice the
operands of nested nodes of their own connective into one flat operand
tuple, so a conjunction of k obligations is one `And` node, and drop
repeated operands, keeping the first occurrence. A formula is
normalized when `simplify` returns it unchanged; `simplify` rebuilds an
arbitrary tree bottom-up with the same constructors. Whatever the
constructors build from normalized operands is normalized again, so the
rewrite (`progression.step`) and `shift_anchored` map normalized formulas
to normalized formulas, and callers that normalize once up front
(`pipeline.monitor`, and `oracle.progress` on each linearization) never
normalize again.
"""

from __future__ import annotations

import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Interval:
    """Half-open [start, end) over non-negative integers; end=None means unbounded.

    Any constructed interval with a finite end <= start collapses to the
    canonical empty interval [0, 0).
    """

    start: int
    end: Optional[int]

    def __post_init__(self):
        if self.start < 0:
            raise ValueError(f"interval start must be >= 0, got {self.start}")
        if self.end is not None and self.end <= self.start:
            object.__setattr__(self, "start", 0)
            object.__setattr__(self, "end", 0)

    @property
    def is_empty(self) -> bool:
        return self.end == 0

    def __contains__(self, a: int) -> bool:
        if self.end is None:
            return a >= self.start
        return self.start <= a < self.end

    def shift(self, t: int) -> "Interval":
        """Subtract t from both endpoints, clamping at 0 (unbounded stays unbounded)."""
        if t < 0:
            raise ValueError("shift amount must be >= 0")
        new_start = max(0, self.start - t)
        new_end = None if self.end is None else max(0, self.end - t)
        return Interval(new_start, new_end)

    def __str__(self) -> str:
        hi = "inf" if self.end is None else str(self.end)
        return f"[{self.start},{hi})"


EMPTY = Interval(0, 0)


class _Ref(weakref.ref):
    __slots__ = ("key",)


_live: Dict[tuple, _Ref] = {}  # (class, *field values) -> its live object
_entering = threading.Lock()


def _drop(ref: _Ref) -> None:
    _remove_dead_weakref(_live, ref.key)  # unless a live object took the key


def _node(cls):
    """A frozen dataclass node; `Interned.__new__` runs its `__init__`."""
    cls = dataclass(frozen=True, eq=False, repr=False)(cls)
    cls._init = cls.__init__
    del cls.__init__
    return cls


class Interned:
    """Hash-consed base with `object`'s `__eq__` and `__hash__`. A call
    returns the live instance of its class and fields, found lock-free by
    its arguments (by `__reduce__` unless all positional), else a new one."""

    def __new__(cls, *args, **kwargs):
        key = (cls, *args)
        ref = None if kwargs else _live.get(key)
        obj = None if ref is None else ref()
        if obj is None:
            obj = object.__new__(cls)
            obj._init(*args, **kwargs)
            if kwargs or len(args) < len(cls.__dataclass_fields__):
                key = (cls, *obj.__reduce__()[1])
            with _entering:
                ref = _live.get(key)
                live = None if ref is None else ref()
                if live is not None:
                    return live
                ref = _live[key] = _Ref(obj, _drop)
                ref.key = key
        return obj

    def __reduce__(self):  # through the class call, which interns
        return type(self), tuple(map(self.__getattribute__, self.__dataclass_fields__))


class Formula(Interned):
    """Base class of the formula nodes, each interned; caches its text."""

    def __str__(self) -> str:
        try:
            return self._str
        except AttributeError:
            from .parser import format_formula

            text = format_formula(self)
            object.__setattr__(self, "_str", text)
            return text

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} {self}>"


@_node
class TrueF(Formula):
    pass


@_node
class FalseF(Formula):
    pass


@_node
class Atom(Formula):
    name: str


@_node
class SumAtom(Formula):
    """Aggregate constraint: sum(to:to_party) >= sum(from:from_party) + offset."""

    to_party: str
    from_party: str
    offset: int = 0


@_node
class Not(Formula):
    operand: Formula


@dataclass(frozen=True, eq=False, init=False, repr=False)
class _Junction(Formula):
    """An n-ary connective over a tuple of two or more operands, built as
    `And(a, b, c)`. The node keeps the operands as given; `mk_and` and
    `mk_or` build the flat, folded form."""

    args: Tuple[Formula, ...]

    def _init(self, *args: Formula):
        if len(args) < 2:
            raise ValueError(f"{type(self).__name__} needs two or more operands")
        object.__setattr__(self, "args", args)

    def __reduce__(self):
        return type(self), self.args


class Or(_Junction):
    pass


class And(_Junction):
    pass


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Until(Formula):
    left: Formula
    interval: Interval
    right: Formula


@_node
class Eventually(Formula):
    interval: Interval
    operand: Formula


@_node
class Globally(Formula):
    interval: Interval
    operand: Formula


TRUE = TrueF()
FALSE = FalseF()


def operands(f: Formula) -> Tuple[Formula, ...]:
    """Immediate subformulas, left before right; none for a leaf."""
    if isinstance(f, (Not, Eventually, Globally)):
        return (f.operand,)
    if isinstance(f, _Junction):
        return f.args
    if isinstance(f, (Implies, Until)):
        return (f.left, f.right)
    return ()


# ---------------------------------------------------------------------------
# Smart constructors: build nodes with constant folding applied.
# ---------------------------------------------------------------------------


def mk_not(f: Formula) -> Formula:
    if isinstance(f, TrueF):
        return FALSE
    if isinstance(f, FalseF):
        return TRUE
    if isinstance(f, Not):
        return f.operand
    return Not(f)


def mk_or(*fs: Formula) -> Formula:
    """Disjunction of any number of operands; folds constants, dedups, flattens."""
    return mk_junction(Or, fs)


def mk_and(*fs: Formula) -> Formula:
    return mk_junction(And, fs)


def mk_junction(cls, fs: Sequence[Formula]) -> Formula:
    """One `cls` node (`And` or `Or`) over fs, built in one pass: operands of
    nested `cls` nodes are spliced in at any depth, the connective's unit is
    dropped, its zero absorbs the rest, and a repeated operand keeps its
    first place. One operand left is returned as it is, none gives the unit."""
    unit, zero = (TRUE, FALSE) if cls is And else (FALSE, TRUE)
    seen = {}  # insertion-ordered: the first occurrence keeps its place
    todo = list(reversed(fs))
    while todo:
        g = todo.pop()
        if isinstance(g, cls):
            todo.extend(reversed(g.args))
        elif g is zero:
            return zero
        elif g is not unit:
            seen[g] = None
    if len(seen) > 1:
        return cls(*seen)
    return next(iter(seen), unit)


def mk_implies(l: Formula, r: Formula) -> Formula:
    if isinstance(l, FalseF) or isinstance(r, TrueF):
        return TRUE
    if isinstance(l, TrueF):
        return r
    if isinstance(r, FalseF):
        return mk_not(l)
    return Implies(l, r)


def mk_until(l: Formula, iv: Interval, r: Formula) -> Formula:
    if iv.is_empty:
        return FALSE
    if isinstance(r, FalseF):
        return FALSE
    return Until(l, iv, r)


def mk_eventually(iv: Interval, f: Formula) -> Formula:
    if iv.is_empty:
        return FALSE
    if isinstance(f, FalseF):
        return FALSE
    return Eventually(iv, f)


def mk_globally(iv: Interval, f: Formula) -> Formula:
    if iv.is_empty:
        return TRUE
    if isinstance(f, TrueF):
        return TRUE
    return Globally(iv, f)


def simplify(f: Formula) -> Formula:
    """Bottom-up constant folding; truth-preserving on every timed trace."""
    if isinstance(f, (TrueF, FalseF, Atom, SumAtom)):
        return f
    if isinstance(f, Not):
        return mk_not(simplify(f.operand))
    if isinstance(f, _Junction):
        return mk_junction(type(f), [simplify(g) for g in f.args])
    if isinstance(f, Implies):
        return mk_implies(simplify(f.left), simplify(f.right))
    if isinstance(f, Until):
        return mk_until(simplify(f.left), f.interval, simplify(f.right))
    if isinstance(f, Eventually):
        return mk_eventually(f.interval, simplify(f.operand))
    if isinstance(f, Globally):
        return mk_globally(f.interval, simplify(f.operand))
    raise TypeError(f"not a formula: {f!r}")


def shift_anchored(f: Formula, t: int) -> Formula:
    """Shift intervals anchored at the evaluation point by elapsed time t.

    The one way time passes: a rewritten formula is shifted by the time
    from its state to the next one, or from a branch's floor to its
    segment's first state. Operand-internal intervals are anchored at
    their own (future) positions and are left untouched.
    """
    if t == 0:
        return f
    if isinstance(f, (TrueF, FalseF, Atom, SumAtom)):
        return f
    if isinstance(f, Not):
        return mk_not(shift_anchored(f.operand, t))
    if isinstance(f, _Junction):
        return mk_junction(type(f), [shift_anchored(g, t) for g in f.args])
    if isinstance(f, Implies):
        return mk_implies(shift_anchored(f.left, t), shift_anchored(f.right, t))
    if isinstance(f, Until):
        return mk_until(f.left, f.interval.shift(t), f.right)
    if isinstance(f, Eventually):
        return mk_eventually(f.interval.shift(t), f.operand)
    if isinstance(f, Globally):
        return mk_globally(f.interval.shift(t), f.operand)
    raise TypeError(f"not a formula: {f!r}")


def atoms_of(f: Formula) -> frozenset:
    """All Atom / SumAtom leaves of a formula."""
    if isinstance(f, (Atom, SumAtom)):
        return frozenset((f,))
    return frozenset().union(*map(atoms_of, operands(f)))


def propositional_atoms(f: Formula) -> frozenset:
    """Atoms with at least one occurrence outside every timed operator;
    such occurrences are read in the first state of a trace."""
    if isinstance(f, (Atom, SumAtom)):
        return frozenset((f,))
    if isinstance(f, (Until, Eventually, Globally)):
        return frozenset()
    return frozenset().union(*map(propositional_atoms, operands(f)))


def max_nesting(f: Formula) -> int:
    """Depth of temporal nesting (0 for purely propositional formulas)."""
    timed = isinstance(f, (Until, Eventually, Globally))
    return timed + max(map(max_nesting, operands(f)), default=0)
