"""A small SMT-LIB v2 solver for quantifier-free boolean + linear integer
problems over finite domains.

Reads commands on standard input and executes each complete top-level
form as it arrives, so it can be driven interactively: every
``check-sat`` prints ``sat``/``unsat``/``unknown`` on one line, every
``get-model`` prints a ``(model ...)`` block with one define-fun per
declared constant, and both are flushed at once. Assertions persist, so
a client can add one and ask again (SMT-LIB incremental use, as with
``z3 -in``). Intended as a drop-in solver command for the monitor's
encoder output; any SMT-LIB-conformant solver can be used instead.
Integer constants must be given finite bounds, however large, by the
asserted constraints (the encoder always does this), otherwise the solver
answers ``unknown``.

Supported forms: set-logic/set-option/set-info/exit (ignored),
declare-const, declare-fun with zero arity, assert, check-sat, get-model,
and reset, which drops every declaration and assertion, the last status
and model, and the kept search, so that one process can serve one
problem after another.
Terms: true false, integer literals, (- k), and or not => = ite < <= > >=
+ - *.

Each assertion is compiled once, when it is added: its sorts and argument
counts are checked, ``=`` over booleans becomes its own operator ``iff``,
and the term becomes closures, one that evaluates it under a partial
assignment and one for its unit rule. Malformed input (a missing argument,
a sort mismatch, a symbol declared twice) is refused like unsupported
input: ``unknown``, a ``; reason`` line, exit status 1. So is a term nested
too deeply for the recursive compiler.

The search is chronological backtracking in declaration order (false before
true, integers ascending) with watched re-evaluation, unit propagation on
equalities/implications/clauses, and dedicated pruning for boolean
cardinality sums. It therefore answers the lexicographically least model.
Evaluation is three-valued, over intervals for integers, and monotone, so
an assertion found true is held: skipped until the search backtracks below
the point where it became true. After ``sat`` the search is kept, decision
stack and all. New assertions only remove models, so the least model is
then the first one at or after the last: the next check-sat answers the
last model again if it satisfies them, and otherwise backtracks from its
leaf, dropping each decision under which one of them is already false. A
declaration, a reset, or any answer but ``sat``, drops the kept search; a
declaration also drops the model, which lacks the new symbol. The answers
are those of a search from scratch.

Run it as a bare script (``python -I -S refsolver.py``): it imports only
``sys``.
"""

from __future__ import annotations

import sys

INF = float("inf")  # an integer bound no assertion has set


class Unsupported(Exception):
    pass


# ---------------------------------------------------------------------------
# S-expression parsing
# ---------------------------------------------------------------------------


def tokenize(text: str):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            out.append(ch)
            i += 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            out.append(text[i:j])
            i = j
    return out


class Reader:
    """Builds s-expressions from tokens fed in pieces; `feed` returns the
    top-level forms completed so far."""

    def __init__(self):
        self.stack = [[]]

    def feed(self, tokens):
        stack = self.stack
        for tok in tokens:
            if tok == "(":
                stack.append([])
            elif tok == ")":
                if len(stack) == 1:
                    raise Unsupported("unbalanced parentheses")
                done = stack.pop()
                stack[-1].append(tuple(done))
            else:
                stack[-1].append(tok)
        forms, stack[0] = stack[0], []
        return forms

    @property
    def open(self) -> bool:
        return len(self.stack) > 1


def parse_sexprs(tokens):
    reader = Reader()
    forms = reader.feed(tokens)
    if reader.open:
        raise Unsupported("unbalanced parentheses")
    return forms


# ---------------------------------------------------------------------------
# Problem representation
# ---------------------------------------------------------------------------

# operator -> (argument sort, result sort, argument count); a count of None
# means one or more. `=` and `ite` take their sorts from their arguments.
SIGNATURES = {
    "not": ("Bool", "Bool", 1),
    "and": ("Bool", "Bool", None),
    "or": ("Bool", "Bool", None),
    "=>": ("Bool", "Bool", 2),
    "<": ("Int", "Bool", 2),
    "<=": ("Int", "Bool", 2),
    ">": ("Int", "Bool", 2),
    ">=": ("Int", "Bool", 2),
    "+": ("Int", "Int", None),
    "-": ("Int", "Int", None),
    "*": ("Int", "Int", None),
}


def signature(op, sorts):
    """(argument sorts, result sort) that `op` needs, given the argument
    sorts it got."""
    if op == "=":
        arg = sorts[0] if sorts else "Int"
        return [arg, arg], "Bool"
    if op == "ite":
        arg = sorts[1] if len(sorts) > 1 else "Int"
        return ["Bool", arg, arg], arg
    if op not in SIGNATURES:
        raise Unsupported(f"unsupported operator {op!r}")
    arg, result, count = SIGNATURES[op]
    return [arg] * (count or max(1, len(sorts))), result


def _once(compile_):
    """A compiler method that builds each subterm once per assertion."""
    def once(self, t):
        key = (compile_, t)
        if key not in self.built:  # `_add` empties it for each assertion
            self.built[key] = compile_(self, t)
        return self.built[key]
    return once


class Problem:
    def __init__(self):
        self.var_order = []  # declaration order
        self.var_sort = {}  # name -> "Bool" | "Int"
        self.tests = []  # per flattened top-level assertion: its evaluator
        self.units = []  # per assertion: its unit rule, or None
        self.watch = {}  # var -> set of assertion indices
        self.card = {}  # assertion index -> (tuple of bool vars, int const)
        self.bounds = {}  # int var -> (lo, hi)

    def declare(self, name, sort):
        if not isinstance(name, str):
            raise Unsupported(f"bad symbol {name!r}")
        if name in self.var_sort:
            raise Unsupported(f"symbol {name!r} is already declared")
        if sort not in ("Bool", "Int"):
            raise Unsupported(f"unsupported sort {sort}")
        self.var_order.append(name)
        self.var_sort[name] = sort
        if sort == "Int":
            self.bounds[name] = (-INF, INF)

    def add_assert(self, term):
        term, sort = self.compile(term)
        if sort != "Bool":
            raise Unsupported(f"assertion of sort {sort}")
        self._add(term)

    def compile(self, term):
        """(compiled term, sort). Compiled terms hold declared names as
        strings, literals as bool and int, and operators as the head of a
        tuple; ``=`` over booleans becomes ``iff``."""
        if isinstance(term, str):
            if term == "true":
                return True, "Bool"
            if term == "false":
                return False, "Bool"
            sort = self.var_sort.get(term)
            if sort is not None:
                return term, sort
            try:
                return int(term), "Int"
            except ValueError:
                raise Unsupported(f"undeclared symbol {term!r}") from None
        if not term or not isinstance(term[0], str):
            raise Unsupported(f"bad term {term!r}")
        op = term[0]
        args = [self.compile(sub) for sub in term[1:]]
        sorts = [s for _, s in args]
        want, sort = signature(op, sorts)
        if sorts != want:
            got = " ".join(sorts) or "nothing"
            raise Unsupported(f"{op!r} takes {' '.join(want)}, given {got}")
        if op == "-" and len(args) == 1 and type(args[0][0]) is int:
            return -args[0][0], "Int"
        if op == "=" and want[0] == "Bool":
            op = "iff"
        return (op, *(t for t, _ in args)), sort

    def _add(self, term):
        # flatten top-level conjunctions so unit rules see the conjuncts
        if type(term) is tuple and term[0] == "and":
            for sub in term[1:]:
                self._add(sub)
            return
        idx = len(self.tests)
        self.built = {}  # (compiler, subterm) -> closure; `_unit` reads `_bool`'s
        self.tests.append(self._bool(term))
        self.units.append(self._unit(term))
        for v in term_vars(term, set()):
            self.watch.setdefault(v, set()).add(idx)
        card = cardinality_shape(term)
        if card:
            self.card[idx] = card
        self._infer_bounds(term)

    def _infer_bounds(self, term):
        if type(term) is not tuple or len(term) != 3:
            return
        op, a, b = term
        if op not in ("<", "<=", ">", ">=", "="):
            return
        if type(b) is str and self.var_sort[b] == "Int":
            a, b = b, a
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}[op]
        if not (type(a) is str and self.var_sort[a] == "Int" and type(b) is int):
            return
        lo, hi = self.bounds[a]
        if op == ">=":
            lo = max(lo, b)
        elif op == ">":
            lo = max(lo, b + 1)
        elif op == "<=":
            hi = min(hi, b)
        elif op == "<":
            hi = min(hi, b - 1)
        else:
            lo, hi = max(lo, b), min(hi, b)
        self.bounds[a] = (lo, hi)

    # Each compiled term becomes a closure over a partial assignment `asg`.
    # A boolean one gives True, False or None (unknown); an integer one the
    # interval [lo, hi] of its values, read off `bounds` for unassigned
    # variables. Both are monotone: a definite value or a bound holds under
    # every extension of `asg`, and under every tightening of `bounds`.

    @_once
    def _bool(self, t):
        if type(t) is bool:
            return lambda asg: t
        if type(t) is str:
            return lambda asg: asg.get(t)
        op = t[0]
        if op in ("<", "<=", ">", ">=", "="):
            a, b = (self._int(s) for s in t[1:])
            if op in (">", ">="):
                a, b = b, a
            if op == "=":
                def eq(asg):
                    alo, ahi = a(asg)
                    blo, bhi = b(asg)
                    if ahi < blo or bhi < alo:
                        return False
                    return True if alo == ahi == blo == bhi else None
                return eq
            d = 1 if op in ("<", ">") else 0  # a < b is a + 1 <= b

            def le(asg):
                alo, ahi = a(asg)
                blo, bhi = b(asg)
                if ahi + d <= blo:
                    return True
                return False if alo + d > bhi else None
            return le
        subs = [self._bool(s) for s in t[1:]]
        if op == "not":
            (a,) = subs
            return lambda asg: None if (v := a(asg)) is None else not v
        if op in ("and", "or"):
            stop = op == "or"  # the value that decides the junction

            def junction(asg):
                unknown = False
                for sub in subs:
                    v = sub(asg)
                    if v is stop:
                        return stop
                    if v is None:
                        unknown = True
                return None if unknown else not stop
            return junction
        if op == "=>":
            a, b = subs

            def implies(asg):
                x = a(asg)
                if x is False:
                    return True
                y = b(asg)
                if y is True:
                    return True
                return False if x is True and y is False else None
            return implies
        if op == "iff":
            a, b = subs

            def iff(asg):
                x, y = a(asg), b(asg)
                return None if x is None or y is None else x == y
            return iff
        c, a, b = subs  # ite

        def ite(asg):
            v = c(asg)
            if v is None:
                x, y = a(asg), b(asg)
                return x if x == y else None
            return a(asg) if v else b(asg)
        return ite

    @_once
    def _int(self, t):
        if type(t) is int:
            pair = (t, t)
            return lambda asg: pair
        if type(t) is str:
            bounds = self.bounds
            return lambda asg: bounds[t] if (v := asg.get(t)) is None else (v, v)
        op = t[0]
        if op == "ite":
            c, a, b = self._bool(t[1]), self._int(t[2]), self._int(t[3])

            def ite(asg):
                v = c(asg)
                if v is None:
                    (l1, h1), (l2, h2) = a(asg), b(asg)
                    return min(l1, l2), max(h1, h2)
                return a(asg) if v else b(asg)
            return ite
        subs = [self._int(s) for s in t[1:]]
        if op in ("+", "-"):
            # (- a) negates a; (- a b ...) subtracts each operand after a
            parts = [(op == "-" and (i > 0 or len(subs) == 1), sub) for i, sub in enumerate(subs)]

            def linear(asg):
                lo = hi = 0
                for negated, sub in parts:
                    l, h = sub(asg)
                    if negated:
                        lo, hi = lo - h, hi - l
                    else:
                        lo, hi = lo + l, hi + h
                return lo, hi
            return linear

        def times(asg):
            lo = hi = 1
            for sub in subs:
                l, h = sub(asg)
                cands = (lo * l, lo * h, hi * l, hi * h)
                lo, hi = min(cands), max(cands)
            return lo, hi
        return times

    def _unit(self, t, want=True):
        """The unit rule of boolean term `t`, which must come out `want`:
        a closure `(asg, forced)` that appends each (variable, value) that
        follows under `asg`, or None when the term's shape gives none."""
        if type(t) is str:
            return lambda asg, forced: forced.append((t, want))
        if type(t) is not tuple:
            return None
        op = t[0]
        if op == "not":
            if want and type(t[1]) is not str:
                return None
            return self._unit(t[1], not want)
        if not want:
            return None
        if op in ("=", "iff"):
            # the first unassigned variable side takes the other side's value
            sides = [(x, (self._bool if op == "iff" else self._int)(other))
                     for x, other in ((t[1], t[2]), (t[2], t[1])) if type(x) is str]
            if not sides:
                return None

            def equal(asg, forced):
                for x, other in sides:
                    if x not in asg:
                        v = other(asg)
                        if op == "iff":
                            if v is not None:
                                forced.append((x, v))
                        elif v[0] == v[1]:
                            forced.append((x, v[0]))
                        return
            return equal
        if op == "=>":
            a, b = self._bool(t[1]), self._bool(t[2])
            ua, ub = self._unit(t[1], False), self._unit(t[2])
            if ua is None and ub is None:
                return None

            def implies(asg, forced):
                if a(asg) is True:
                    if ub:
                        ub(asg, forced)
                elif ua and b(asg) is False:
                    ua(asg, forced)
            return implies
        if op == "or":
            subs = [(self._bool(s), self._unit(s)) for s in t[1:]]

            def clause(asg, forced):  # a lone unknown disjunct must hold
                rule, unknown = None, False
                for test, unit in subs:
                    v = test(asg)
                    if v is True or (v is None and unknown):
                        return
                    if v is None:
                        rule, unknown = unit, True
                if rule:
                    rule(asg, forced)
            return clause
        return None


def term_vars(term, acc):
    if type(term) is str:
        acc.add(term)
    elif type(term) is tuple:
        for sub in term[1:]:
            term_vars(sub, acc)
    return acc


def cardinality_shape(term):
    """Detect (= (+ (ite b 1 0) ...) K) and return (bool vars, K)."""
    if not (type(term) is tuple and len(term) == 3 and term[0] == "="):
        return None
    lhs, k = term[1], term[2]
    if type(k) is not int:
        lhs, k = k, lhs
    if type(k) is not int or not (type(lhs) is tuple and lhs[0] == "+"):
        return None
    parts = lhs[1:]  # sorted terms: an ite over 1 and 0 is an Int ite
    if all(type(x) is tuple and x[0] == "ite" and type(x[1]) is str and x[2:] == (1, 0)
           for x in parts):
        return tuple(x[1] for x in parts), k
    return None


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


class Solver:
    """Finds the lexicographically least model of `problem`: a depth-first
    search in declaration order that keeps its state after `sat`. `stack`
    holds one [position, variable, value, trail mark] frame per decision,
    and the assignment is the last model. Asked again once more assertions
    have been added, `solve` goes on from there (see `_resume`); after any
    other answer the solver is spent."""

    def __init__(self, problem: Problem):
        self.p = problem
        self.asg = {}
        self.trail = []  # assigned variables, in order
        self.held = []  # per assertion: true under the current assignment
        self.holds = []  # (trail length, index) of each held assertion
        self.stack = None  # the decision frames, once a search has begun
        self.seen = 0  # assertions the search has taken in

    def solve(self):
        p = self.p
        for lo, hi in p.bounds.values():
            if lo == -INF or hi == INF:
                return "unknown", None
            if lo > hi:
                return "unsat", None
        new = range(self.seen, len(p.tests))
        self.seen = len(p.tests)
        self.held += [False] * len(new)
        if self.stack is None:
            self.stack = []
            found = self._propagate(new) and self._search(True)
        else:
            found = self._resume(new)
        return ("sat", dict(self.asg)) if found else ("unsat", None)

    def _resume(self, new) -> bool:
        """Search on from the last model M for the assertions `new` too.
        M was the least model without them, and they only remove models,
        so the least model now is the first at or after M: M itself if it
        satisfies them, else the next leaf of the same search. Every frame
        whose assignment already falsifies one of them is dropped."""
        asg, stack, tests = self.asg, self.stack, self.p.tests
        if all(tests[i](asg) is True for i in new):
            return True
        while stack:
            self._undo(stack[-1][3])
            if all(tests[i](asg) is not False for i in new):
                return self._search(False)  # the top frame's value fails
            stack.pop()
        return False

    def _search(self, descend) -> bool:
        """Run the search until a leaf satisfies every assertion (True) or
        the frames run out (False). With `descend` it starts by deciding
        the next unassigned variable, else by the top frame's next value:
        false before true, integers ascending within the bounds."""
        p, asg, stack = self.p, self.asg, self.stack
        order, sorts, bounds = p.var_order, p.var_sort, p.bounds
        n = len(order)
        while True:
            if descend:
                pos = stack[-1][0] + 1 if stack else 0
                while pos < n and order[pos] in asg:
                    pos += 1
                if pos == n:
                    if self._all_satisfied():
                        return True
                else:
                    stack.append([pos, order[pos], None, len(self.trail)])
            descend = False
            while not descend:
                if not stack:
                    return False
                frame = stack[-1]
                _, var, val, mark = frame
                self._undo(mark)
                if sorts[var] == "Bool":
                    val = False if val is None else True if val is False else None
                else:
                    lo, hi = bounds[var]
                    val = lo if val is None else max(val + 1, lo)
                    if val > hi:
                        val = None
                if val is None:
                    stack.pop()
                else:
                    frame[2] = val
                    descend = self._assign(var, val)

    def _all_satisfied(self) -> bool:
        held, asg = self.held, self.asg
        return all(held[i] or test(asg) is True for i, test in enumerate(self.p.tests))

    def _assign(self, var, val) -> bool:
        self.asg[var] = val
        self.trail.append(var)
        return self._propagate(self.p.watch.get(var, ()))

    def _undo(self, mark):
        trail, asg, holds = self.trail, self.asg, self.holds
        while len(trail) > mark:
            del asg[trail.pop()]
        while holds and holds[-1][0] > mark:
            self.held[holds.pop()[1]] = False

    def _propagate(self, dirty) -> bool:
        """Evaluate the assertions in `dirty`, and those of each variable
        they force, skipping held ones; False on a conflict. An assertion
        that comes out true is held until the trail is undone below the
        length it had then."""
        p, asg, trail, held, holds = self.p, self.asg, self.trail, self.held, self.holds
        queue, forced = list(dirty), []
        while queue:
            idx = queue.pop()
            if held[idx]:
                continue
            card = p.card.get(idx)
            status = self._check_card(card, forced) if card else p.tests[idx](asg)
            if status is False:
                return False
            if status:
                held[idx] = True
                holds.append((len(trail), idx))
                continue
            if not card and p.units[idx]:
                p.units[idx](asg, forced)
            for var, val in forced:
                cur = asg.get(var)
                if cur is None:
                    asg[var] = val
                    trail.append(var)
                    queue.extend(p.watch.get(var, ()))
                elif cur != val:
                    return False
            forced.clear()
        return True

    def _check_card(self, card, forced):
        """The value of a cardinality assertion, None while some of its
        variables are free; forces them where the count leaves no choice."""
        bools, k = card
        true = sum(1 for b in bools if self.asg.get(b) is True)
        free = [b for b in bools if self.asg.get(b) is None]
        if true > k or true + len(free) < k:
            return False
        if not free:
            return True
        if true == k:
            forced.extend((b, False) for b in free)
        elif true + len(free) == k:
            forced.extend((b, True) for b in free)
        return None


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


# command -> number of arguments
COMMANDS = {
    "declare-const": 2, "declare-fun": 3, "assert": 1, "check-sat": 0, "get-model": 0, "reset": 0,
}


class Executor:
    """Executes top-level commands in order against one growing problem,
    which `(reset)` empties. `solver` keeps the search of the last `sat`
    answer while no declaration or reset has followed it."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.problem = Problem()
        self.status, self.model = None, None
        self.solver = None

    def execute(self, form):
        """Run one command; returns its output line(s) without the final
        newline, or None for a command that prints nothing."""
        if not isinstance(form, tuple) or not form:
            raise Unsupported(f"bad top-level form {form!r}")
        head, problem = form[0], self.problem
        if head in ("set-logic", "set-option", "set-info", "exit"):
            return None
        if head not in COMMANDS:
            raise Unsupported(f"unsupported command {head!r}")
        if len(form) - 1 != COMMANDS[head]:
            raise Unsupported(f"{head} takes {COMMANDS[head]} arguments, given {len(form) - 1}")
        if head in ("declare-const", "declare-fun"):
            if head == "declare-fun" and form[2] != ():
                raise Unsupported("only zero-arity declare-fun is supported")
            problem.declare(form[1], form[-1])
            self.solver = self.status = None  # the last model lacks the new symbol
        elif head == "assert":
            problem.add_assert(form[1])
        elif head == "reset":
            self.reset()
        elif head == "check-sat":
            self.solver = self.solver or Solver(problem)
            self.status, self.model = self.solver.solve()
            if self.status != "sat":
                self.solver = None
            return self.status
        elif head == "get-model":
            if self.status != "sat":
                return "(error \"model is not available\")"
            out = ["(model"]
            for v in problem.var_order:
                sort = problem.var_sort[v]
                val = self.model[v]
                if sort == "Bool":
                    txt = "true" if val else "false"
                else:
                    txt = str(val) if val >= 0 else f"(- {-val})"
                out.append(f"  (define-fun {v} () {sort} {txt})")
            out.append(")")
            return "\n".join(out)
        return None


def run(text: str) -> str:
    """Execute a whole script; returns everything it prints."""
    executor = Executor()
    outs = (executor.execute(form) for form in parse_sexprs(tokenize(text)))
    return "".join(out + "\n" for out in outs if out is not None)


def main() -> int:
    executor, reader = Executor(), Reader()
    try:
        for line in sys.stdin:
            for form in reader.feed(tokenize(line)):
                out = executor.execute(form)
                if out is not None:
                    sys.stdout.write(out + "\n")
                    sys.stdout.flush()
        if reader.open:
            raise Unsupported("unbalanced parentheses")
    except Unsupported as exc:
        sys.stdout.write(f"unknown\n; {exc}\n")
        return 1
    except RecursionError:  # the compiler and evaluator recurse on term depth
        sys.stdout.write("unknown\n; terms nested too deeply\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
