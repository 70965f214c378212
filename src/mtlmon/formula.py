"""MTL formula AST: half-open integer intervals, connectives, timed operators.

All nodes are frozen dataclasses with structural equality. Each node
computes its hash once, from its type and its declared dataclass fields
in order, and caches it, so hashing a formula is O(1) after the first
time: the rewrite memo and the branch sets key on whole formulas. A node
also formats itself once and caches the text, since branch formulas are
sorted and reported by their text. Hashes of strings vary between
processes, which is harmless because formulas are never pickled.

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
(`pipeline.monitor`, `progression.progress`) never normalize again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple


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


def in_interval(tau_i: int, tau_0: int, iv: Interval) -> bool:
    """True iff the elapsed time tau_i - tau_0 falls in the half-open interval."""
    return (tau_i - tau_0) in iv


class Formula:
    """Base class; subclasses are frozen dataclasses. Each subclass gets
    `__hash__` from here before `@dataclass` runs, and `@dataclass` keeps a
    `__hash__` the class already has instead of generating one, which would
    rehash the whole subtree on every call. The hash and the text are
    cached on the node."""

    def __init_subclass__(cls):
        cls.__hash__ = Formula.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            # by `__getattribute__`: reading `__dict__` would slow every
            # later attribute read on the node, and a comprehension's
            # closure over `self` would slow every call of this method
            fields = map(self.__getattribute__, self.__dataclass_fields__)
            h = hash((type(self), *fields))
            object.__setattr__(self, "_hash", h)
            return h

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


@dataclass(frozen=True, repr=False)
class TrueF(Formula):
    pass


@dataclass(frozen=True, repr=False)
class FalseF(Formula):
    pass


@dataclass(frozen=True, repr=False)
class Atom(Formula):
    name: str


@dataclass(frozen=True, repr=False)
class SumAtom(Formula):
    """Aggregate constraint: sum(to:to_party) >= sum(from:from_party) + offset."""

    to_party: str
    from_party: str
    offset: int = 0


@dataclass(frozen=True, repr=False)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True, init=False, repr=False)
class _Junction(Formula):
    """An n-ary connective over a tuple of two or more operands, built as
    `And(a, b, c)`. The node keeps the operands as given; `mk_and` and
    `mk_or` build the flat, folded form."""

    args: Tuple[Formula, ...]

    def __init__(self, *args: Formula):
        if len(args) < 2:
            raise ValueError(f"{type(self).__name__} needs two or more operands")
        object.__setattr__(self, "args", args)


class Or(_Junction):
    pass


class And(_Junction):
    pass


@dataclass(frozen=True, repr=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Until(Formula):
    left: Formula
    interval: Interval
    right: Formula


@dataclass(frozen=True, repr=False)
class Eventually(Formula):
    interval: Interval
    operand: Formula


@dataclass(frozen=True, repr=False)
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
        elif isinstance(g, (TrueF, FalseF)):
            if g == zero:
                return zero
        else:
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

    Used when a residual formula from one segment is carried across an
    event-free time gap of length t before the next segment begins.
    Operand-internal intervals are anchored at their own (future)
    positions and are left untouched.
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
