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
and model, and the resume floor, so that one process can serve one
problem after another.
Terms: true false, integer literals, (- k), and or not => = ite < <= > >=
+ - *.

Each assertion is compiled once, when it is added: its sorts and argument
counts are checked, literals become Python values, and ``=`` over booleans
becomes its own operator ``iff``. Malformed input (a missing argument, a
sort mismatch, a symbol declared twice) is refused like unsupported input:
``unknown``, a ``; reason`` line, exit status 1. So is a term nested too
deeply for the recursive compiler.

The search is chronological backtracking in declaration order (false before
true, integers ascending) with watched re-evaluation, unit propagation on
equalities/implications/clauses, and dedicated pruning for boolean
cardinality sums. It therefore answers the lexicographically least model.
An assertion can only shrink the set of models, so the least model after it
is never below the last one: each check-sat resumes from the last ``sat``
model, taken as an inclusive lower bound, and skips every assignment below
it. A declaration, a reset, or any answer but ``sat``, drops that bound;
a declaration also drops the model, which lacks the new symbol. The answers
are the same as those of a search from scratch.

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


class Problem:
    def __init__(self):
        self.var_order = []  # declaration order
        self.var_sort = {}  # name -> "Bool" | "Int"
        self.asserts = []  # compiled, flattened top-level assertions
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
        idx = len(self.asserts)
        self.asserts.append(term)
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
    bools = []
    for part in lhs[1:]:
        if (
            type(part) is tuple
            and len(part) == 4
            and part[0] == "ite"
            and type(part[1]) is str
            and type(part[2]) is int
            and type(part[3]) is int
            and (part[2], part[3]) == (1, 0)
        ):
            bools.append(part[1])
        else:
            return None
    return tuple(bools), k


# ---------------------------------------------------------------------------
# Three-valued / interval evaluation over compiled terms
# ---------------------------------------------------------------------------


def eval_bool(term, asg, bounds):
    """True / False / None (unknown)."""
    if type(term) is str:
        return asg.get(term)
    if type(term) is bool:
        return term
    op = term[0]
    if op == "not":
        v = eval_bool(term[1], asg, bounds)
        return None if v is None else (not v)
    if op == "and":
        unknown = False
        for sub in term[1:]:
            v = eval_bool(sub, asg, bounds)
            if v is False:
                return False
            if v is None:
                unknown = True
        return None if unknown else True
    if op == "or":
        unknown = False
        for sub in term[1:]:
            v = eval_bool(sub, asg, bounds)
            if v is True:
                return True
            if v is None:
                unknown = True
        return None if unknown else False
    if op == "=>":
        a = eval_bool(term[1], asg, bounds)
        if a is False:
            return True
        b = eval_bool(term[2], asg, bounds)
        if b is True:
            return True
        if a is True and b is False:
            return False
        return None
    if op == "iff":
        a = eval_bool(term[1], asg, bounds)
        b = eval_bool(term[2], asg, bounds)
        if a is None or b is None:
            return None
        return a == b
    if op == "ite":
        c = eval_bool(term[1], asg, bounds)
        if c is None:
            x = eval_bool(term[2], asg, bounds)
            y = eval_bool(term[3], asg, bounds)
            return x if x == y else None
        return eval_bool(term[2 if c else 3], asg, bounds)
    if op in ("<", "<=", ">", ">=", "="):
        alo, ahi = eval_int(term[1], asg, bounds)
        blo, bhi = eval_int(term[2], asg, bounds)
        if op == "<":
            if ahi < blo:
                return True
            if alo >= bhi:
                return False
        elif op == "<=":
            if ahi <= blo:
                return True
            if alo > bhi:
                return False
        elif op == ">":
            if alo > bhi:
                return True
            if ahi <= blo:
                return False
        elif op == ">=":
            if alo >= bhi:
                return True
            if ahi < blo:
                return False
        else:  # =
            if alo == ahi == blo == bhi:
                return True
            if ahi < blo or bhi < alo:
                return False
        return None
    raise Unsupported(f"boolean operator {op!r}")


def eval_int(term, asg, bounds):
    """Interval [lo, hi] of an arithmetic term under the partial assignment."""
    if type(term) is int:
        return term, term
    if type(term) is str:
        v = asg.get(term)
        if v is not None:
            return v, v
        return bounds[term]
    op = term[0]
    if op == "+":
        lo = hi = 0
        for sub in term[1:]:
            l, h = eval_int(sub, asg, bounds)
            lo += l
            hi += h
        return lo, hi
    if op == "-":
        if len(term) == 2:
            l, h = eval_int(term[1], asg, bounds)
            return -h, -l
        lo, hi = eval_int(term[1], asg, bounds)
        for sub in term[2:]:
            l, h = eval_int(sub, asg, bounds)
            lo, hi = lo - h, hi - l
        return lo, hi
    if op == "*":
        lo = hi = 1
        for sub in term[1:]:
            l, h = eval_int(sub, asg, bounds)
            cands = (lo * l, lo * h, hi * l, hi * h)
            lo, hi = min(cands), max(cands)
        return lo, hi
    if op == "ite":
        cond = eval_bool(term[1], asg, bounds)
        if cond is True:
            return eval_int(term[2], asg, bounds)
        if cond is False:
            return eval_int(term[3], asg, bounds)
        l1, h1 = eval_int(term[2], asg, bounds)
        l2, h2 = eval_int(term[3], asg, bounds)
        return min(l1, l2), max(h1, h2)
    raise Unsupported(f"arithmetic operator {op!r}")


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


class Solver:
    """Finds the lexicographically least model of `problem` that is not
    below `floor`, a full assignment (None for no bound)."""

    def __init__(self, problem: Problem, floor=None):
        self.p = problem
        self.floor = floor
        self.asg = {}
        self.trail = []

    def solve(self):
        for v, (lo, hi) in self.p.bounds.items():
            if lo == -INF or hi == INF:
                return "unknown", None
            if lo > hi:
                return "unsat", None
        if not self._propagate(range(len(self.p.asserts))):
            return "unsat", None
        if self._search(0, self.floor is not None):
            return "sat", dict(self.asg)
        return "unsat", None

    def _search(self, pos, tight) -> bool:
        """Assign order[pos:]. While `tight`, the values of order[:pos] equal
        the floor's: a value below the floor's prunes the branch, and the
        first value above it lifts the bound."""
        order, asg, floor = self.p.var_order, self.asg, self.floor
        n = len(order)
        while pos < n and order[pos] in asg:
            if tight:
                val, least = asg[order[pos]], floor[order[pos]]
                if val < least:
                    return False
                tight = val == least
            pos += 1
        if pos == n:
            return self._all_satisfied()
        var = order[pos]
        least = floor[var] if tight else None
        if self.p.var_sort[var] == "Bool":
            values = (True,) if least else (False, True)
        else:
            lo, hi = self.p.bounds[var]
            values = range(lo if least is None else max(lo, least), hi + 1)
        for val in values:
            mark = len(self.trail)
            if self._assign(var, val) and self._search(pos + 1, val == least):
                return True
            self._undo(mark)
        return False

    def _all_satisfied(self) -> bool:
        p = self.p
        return all(eval_bool(t, self.asg, p.bounds) is True for t in p.asserts)

    def _assign(self, var, val) -> bool:
        self.asg[var] = val
        self.trail.append(var)
        return self._propagate(self.p.watch.get(var, ()))

    def _undo(self, mark):
        while len(self.trail) > mark:
            del self.asg[self.trail.pop()]

    def _propagate(self, dirty) -> bool:
        p = self.p
        queue = list(dirty)
        while queue:
            idx = queue.pop()
            term = p.asserts[idx]
            forced = []
            card = p.card.get(idx)
            if card:
                ok = self._check_card(card, forced)
            else:
                status = eval_bool(term, self.asg, p.bounds)
                if status is False:
                    return False
                ok = True
                if status is None:
                    self._unit(term, forced)
            if not ok:
                return False
            for var, val in forced:
                cur = self.asg.get(var)
                if cur is None:
                    self.asg[var] = val
                    self.trail.append(var)
                    queue.extend(p.watch.get(var, ()))
                elif cur != val:
                    return False
        return True

    def _check_card(self, card, forced) -> bool:
        bools, k = card
        true = sum(1 for b in bools if self.asg.get(b) is True)
        free = [b for b in bools if self.asg.get(b) is None]
        if true > k or true + len(free) < k:
            return False
        if free:
            if true == k:
                forced.extend((b, False) for b in free)
            elif true + len(free) == k:
                forced.extend((b, True) for b in free)
        return True

    def _unit(self, term, forced):
        """Derive forced assignments from an assertion that must hold."""
        p = self.p
        if type(term) is str:
            forced.append((term, True))
            return
        op = term[0]
        if op == "not" and type(term[1]) is str:
            forced.append((term[1], False))
        elif op in ("=", "iff") and len(term) == 3:
            for x, other in ((term[1], term[2]), (term[2], term[1])):
                if type(x) is str and x not in self.asg:
                    if op == "iff":
                        v = eval_bool(other, self.asg, p.bounds)
                        if v is not None:
                            forced.append((x, v))
                    else:
                        lo, hi = eval_int(other, self.asg, p.bounds)
                        if lo == hi:
                            forced.append((x, lo))
                    return
        elif op == "=>":
            a = eval_bool(term[1], self.asg, p.bounds)
            if a is True:
                self._unit(term[2], forced)
            else:
                b = eval_bool(term[2], self.asg, p.bounds)
                if b is False:
                    self._unit(neg(term[1]), forced)
        elif op == "or":
            unknowns = []
            for sub in term[1:]:
                v = eval_bool(sub, self.asg, p.bounds)
                if v is True:
                    return
                if v is None:
                    unknowns.append(sub)
                    if len(unknowns) > 1:
                        return
            if len(unknowns) == 1:
                self._unit(unknowns[0], forced)


def neg(term):
    if type(term) is tuple and term[0] == "not":
        return term[1]
    return ("not", term)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


# command -> number of arguments
COMMANDS = {
    "declare-const": 2, "declare-fun": 3, "assert": 1, "check-sat": 0, "get-model": 0, "reset": 0,
}


class Executor:
    """Executes top-level commands in order against one growing problem,
    which `(reset)` empties. `floor` is the last sat model while no
    declaration or reset has followed it."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.problem = Problem()
        self.status, self.model = None, None
        self.floor = None

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
        if head == "declare-const":
            problem.declare(form[1], form[2])
            self.floor = self.status = None  # the last model lacks the new symbol
        elif head == "declare-fun":
            if form[2] != ():
                raise Unsupported("only zero-arity declare-fun is supported")
            problem.declare(form[1], form[3])
            self.floor = self.status = None
        elif head == "assert":
            problem.add_assert(form[1])
        elif head == "reset":
            self.reset()
        elif head == "check-sat":
            self.status, self.model = Solver(problem, self.floor).solve()
            self.floor = self.model
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
