"""Solver-backed verdict engine.

One segment's question is unrolled into a quantifier-free boolean/integer
problem over SMT-LIB v2 text, once per segment and branch. The engine is
one loop: solve, decode the sat model once into a (cut order, timestamp
assignment) pair, replay the rewrite on that linearization through the
memo the cut walk shares (`progression.advance`), and add a blocking
assertion over the bits that determine the outcome (residual and last
time), until the solver answers unsat. An encoding that would declare
more than VAR_BUDGET boolean variables is refused.

Each enumeration (one segment and branch) runs one solver process, a
SolverSession, in SMT-LIB incremental use: the problem is sent once, then
each round sends only its new blocking assertion and (check-sat), and
(get-model) only after sat. The solver must answer each command as it
arrives. Each round is still stated as its full standalone query, the text
--emit-smt writes; the session sends the part the solver does not hold.

Symbol scheme (stable across runs for identical inputs):

    rho_<step>_<event_index>   Bool   event is in the cut at this step
    delta_<event_index>        Int    perturbed time of the event
    tau_<step>                 Int    time of the step's added event
    at_<pos>_<atom_id>         Bool   atom truth in the frontier state
    last                       Int    tau_m, the outcome's last time
    off_<pos>                  Int    tau_<pos+1> - base (nested formulas)
    wit_/vio_/pref_/guard_<node_id>   Bool   per-node rewrite decision bits
    shout_<node_id>            Int    the node's window shift outcome

Steps run 1..m; trace position p corresponds to step p+1. Atom ids number
the formula's distinct state predicates in sorted order; node ids number
formula nodes in pre-order, where an n-operand And or Or is one node.
Anchored windows are measured from one base,
the floor when one is threaded and tau_1 otherwise: replay shifts them by
first - floor, and for o, d >= 0, o lies in iv.shift(d) iff o + d lies in iv.
"""

from __future__ import annotations

import os
import re
import selectors
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .computation import Computation, time_window
from .errors import BudgetExceeded, EmitError, SolverError
from .formula import (
    And,
    Atom,
    Eventually,
    FalseF,
    Formula,
    Globally,
    Implies,
    Interval,
    Not,
    Or,
    SumAtom,
    TrueF,
    Until,
    atoms_of,
    max_nesting,
    operands,
    propositional_atoms,
    simplify,
)
from .progression import advance, shared
from .semantics import State, merge_frontier

# perfbench/spans.py wraps these two names on this module to count
# progress calls and shifts; replay calls neither.
from .formula import shift_anchored  # noqa: F401
from .oracle import progress  # noqa: F401

DEFAULT_TIMEOUT = 60.0
VAR_BUDGET = 5000  # boolean variables one encoding may declare


class SegmentTooLargeError(BudgetExceeded):
    """Encoding would exceed the boolean-variable budget."""


class SolverCrashError(SolverError):
    pass


class SolverTimeoutError(SolverError):
    pass


class ModelDecodeError(SolverError):
    pass


def bundled_solver_command() -> str:
    """Command line for the reference solver shipped with this package: this
    interpreter runs refsolver.py, by absolute path, as a bare script. `-I`
    ignores the PYTHON* variables and the user's site directory, and `-S`
    skips `site`; refsolver.py imports only `sys`, so the child needs neither
    an installed mtlmon nor src/ on PYTHONPATH, and it starts in a fraction
    of the time of `python -m mtlmon.refsolver`."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refsolver.py")
    return f"{shlex.quote(sys.executable)} -I -S {shlex.quote(script)}"


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmtProblem:
    """Declarations and assertions (without check-sat) plus decode metadata."""

    text: str
    comp: Computation  # the encoded segment
    floor: Optional[int]
    carry: Tuple[Tuple[str, State], ...]
    signature_bools: Tuple[str, ...]
    signature_ints: Tuple[str, ...]
    formula: Formula

    @property
    def m(self) -> int:
        return len(self.comp)


def _atom_key(a) -> tuple:
    if isinstance(a, Atom):
        return (0, a.name, "", 0)
    return (1, a.to_party, a.from_party, a.offset)


def _bool_fold(op: str, parts: List[str]) -> str:
    """`(op ...)` over parts, op "and" or "or": its unit is dropped, its
    zero absorbs the rest, and one part left is returned as it is."""
    unit, zero = ("true", "false") if op == "and" else ("false", "true")
    parts = [p for p in parts if p != unit]
    if zero in parts:
        return zero
    if not parts:
        return unit
    if len(parts) == 1:
        return parts[0]
    return f"({op} " + " ".join(parts) + ")"


class _Encoder:
    def __init__(
        self,
        c: Computation,
        f: Formula,
        floor: Optional[int],
        carry: Mapping[str, State],
    ):
        self.c = c
        self.f = f
        self.floor = floor
        self.carry = dict(carry)
        self.m = len(c.events)
        self.decls: List[str] = []
        self.asserts: List[str] = []
        self.n_bools = 0
        self.atoms = sorted(atoms_of(f), key=_atom_key)
        self.atom_id = {a: i for i, a in enumerate(self.atoms)}
        self.nested = max_nesting(f) >= 2
        # formula nodes in pre-order (operands left to right)
        self.nodes: List[Formula] = []
        self._number(f)
        self.sig_bools: List[str] = []
        self.sig_ints: List[str] = []
        # per-process time-ordered event indices
        self.by_proc: Dict[str, Tuple[int, ...]] = dict(zip(c.processes, c.streams))
        self.windows = [time_window(e, c.epsilon) for e in c.events]
        # bounds on every step time
        self.tmin = min(w.start for w in self.windows)
        if floor is not None:
            self.tmin = max(self.tmin, floor)
        self.tmax = max(w.stop - 1 for w in self.windows)
        self.base = "tau_1" if floor is None else _int(floor)
        # the most time any position can lie after the base
        self.span = max(0, self.tmax - (self.tmin if floor is None else floor))

    def _number(self, g: Formula):
        self.nodes.append(g)
        for h in operands(g):
            self._number(h)

    def declare(self, name: str, sort: str):
        self.decls.append(f"(declare-const {name} {sort})")
        if sort == "Bool":
            self.n_bools += 1
            if self.n_bools > VAR_BUDGET:
                raise SegmentTooLargeError(
                    f"segment needs more than {VAR_BUDGET} boolean variables"
                )

    def add(self, term: str):
        self.asserts.append(f"(assert {term})")

    # -- structural constraints over the cut sequence --

    def encode_structure(self):
        c, m = self.c, self.m
        for step in range(m + 1):
            for k in range(m):
                self.declare(f"rho_{step}_{k}", "Bool")
        for k in range(m):
            self.declare(f"delta_{k}", "Int")
        for step in range(1, m + 1):
            self.declare(f"tau_{step}", "Int")

        for k in range(m):
            self.add(f"(not rho_0_{k})")
            self.add(f"rho_{m}_{k}")
        for step in range(m):
            for k in range(m):
                self.add(f"(=> rho_{step}_{k} rho_{step + 1}_{k})")
        for step in range(1, m):
            total = " ".join(f"(ite rho_{step}_{k} 1 0)" for k in range(m))
            self.add(f"(= (+ {total}) {step})")
        for b in range(m):
            for a in c.predecessors(b):
                for step in range(1, m):
                    self.add(f"(=> rho_{step}_{b} rho_{step}_{a})")

        for k, w in enumerate(self.windows):
            self.add(f"(>= delta_{k} {w.start})")
            self.add(f"(<= delta_{k} {w.stop - 1})")
        if self.floor is not None:
            self.add(f"(>= tau_1 {self.floor})")
        for step in range(1, m + 1):
            self.add(f"(>= tau_{step} {self.tmin})")
            self.add(f"(<= tau_{step} {self.tmax})")
            for k in range(m):
                prev = f"(not rho_{step - 1}_{k})"
                self.add(f"(=> (and rho_{step}_{k} {prev}) (= tau_{step} delta_{k}))")
        for step in range(1, m):
            self.add(f"(>= tau_{step + 1} tau_{step})")

    # -- frontier state predicates --

    def _frontier_atom(self, a: Atom, step: int) -> str:
        parts: List[str] = []
        for proc in sorted(self.by_proc):
            idxs = self.by_proc[proc]
            for pos, k in enumerate(idxs):
                if a.name not in self.c.events[k].payload.props:
                    continue
                if pos + 1 < len(idxs):
                    parts.append(f"(and rho_{step}_{k} (not rho_{step}_{idxs[pos + 1]}))")
                else:
                    parts.append(f"rho_{step}_{k}")
        for proc in sorted(self.carry):
            if a.name not in self.carry[proc].props:
                continue
            idxs = self.by_proc.get(proc)
            if idxs:
                parts.append(f"(not rho_{step}_{idxs[0]})")
            else:
                parts.append("true")
        return _bool_fold("or", parts)

    def _total_term(self, key: str, step: int) -> str:
        """Linear term for the cross-process sum of a running-total variable."""
        const = 0
        parts: List[str] = []
        for proc in sorted(set(self.by_proc) | set(self.carry)):
            base = self.carry.get(proc, State()).variables.get(key, 0)
            const += base
            prev = base
            for k in self.by_proc.get(proc, []):
                cur = self.c.events[k].payload.variables.get(key, prev)
                d = cur - prev
                if d:
                    parts.append(f"(ite rho_{step}_{k} {_int(d)} 0)")
                prev = cur
        if not parts:
            return _int(const)
        return f"(+ {_int(const)} " + " ".join(parts) + ")"

    def _frontier_sum(self, a: SumAtom, step: int) -> str:
        to_term = self._total_term(f"to_{a.to_party}", step)
        from_term = self._total_term(f"from_{a.from_party}", step)
        rhs = from_term if a.offset == 0 else f"(+ {from_term} {_int(a.offset)})"
        return f"(>= {to_term} {rhs})"

    def encode_states(self):
        for pos in range(self.m):
            step = pos + 1
            for a in self.atoms:
                name = f"at_{pos}_{self.atom_id[a]}"
                self.declare(name, "Bool")
                if isinstance(a, Atom):
                    self.add(f"(= {name} {self._frontier_atom(a, step)})")
                else:
                    self.add(f"(= {name} {self._frontier_sum(a, step)})")

    # -- timing helpers and the blocking signature --

    def encode_timing(self):
        # the pipeline keys an outcome by (residual, last time)
        self.declare("last", "Int")
        self.add(f"(= last tau_{self.m})")
        self.add(f"(>= last {self.tmin})")
        self.add(f"(<= last {self.tmax})")
        self.sig_ints.append("last")
        if self.nested:
            # Nested windows re-anchor at inner positions: the rewrite can
            # read the time of any position, so every offset from the base
            # joins the signature together with the per-position state bits.
            self.sig_bools.extend(
                f"at_{pos}_{self.atom_id[a]}" for pos in range(self.m) for a in self.atoms
            )
            for pos in range(0 if self.floor is not None else 1, self.m):
                self.declare(f"off_{pos}", "Int")
                self.add(f"(= off_{pos} {self._elapsed(pos)})")
                self.add(f"(>= off_{pos} 0)")
                self.add(f"(<= off_{pos} {self.span})")
                self.sig_ints.append(f"off_{pos}")

    def encode_summary(self):
        """Per-node decision bits that pin the rewrite of a flat formula.

        With propositional operands the rewrite of each timed node is one
        of: a constant, or its own residual over the shifted window. That
        outcome is a function of (witness/violation existence, the left
        obligation for Until, and the window's shift outcome), so blocking
        on these collapses every model with the same rewrite into one
        class. Nested formulas fall back to the fine position signature.
        """
        if self.nested:
            return
        # atoms read outside every timed operator are evaluated in the
        # first state; their truth there co-determines the rewrite
        for a in sorted(propositional_atoms(self.f), key=_atom_key):
            self.sig_bools.append(f"at_0_{self.atom_id[a]}")
        m, prop = self.m, self._prop
        for nid, node in enumerate(self.nodes):
            if not isinstance(node, (Until, Eventually, Globally)):
                continue
            iv = node.interval
            if isinstance(node, Eventually):
                wit = _bool_fold(
                    "or",
                    [
                        _bool_fold("and", [self._inin(iv, j), prop(node.operand, j)])
                        for j in range(m)
                    ]
                )
                self._sig_bool(f"wit_{nid}", wit)
            elif isinstance(node, Globally):
                vio = _bool_fold(
                    "or",
                    [
                        _bool_fold(
                            "and", [self._inin(iv, j), f"(not {prop(node.operand, j)})"]
                        )
                        for j in range(m)
                    ]
                )
                self._sig_bool(f"vio_{nid}", vio)
            else:
                l, r = node.left, node.right
                wit = _bool_fold(
                    "or",
                    [
                        _bool_fold(
                            "and",
                            [self._inin(iv, j), prop(r, j)]
                            + [prop(l, k) for k in range(j)]
                        )
                        for j in range(m)
                    ]
                )
                self._sig_bool(f"wit_{nid}", wit)
                pref = _bool_fold("and", [prop(l, i) for i in range(m)])
                self._sig_bool(f"pref_{nid}", pref)
                guard = _bool_fold(
                    "and",
                    [
                        f"(=> (< {self._elapsed(i)} {iv.start}) {prop(l, i)})"
                        for i in range(m)
                    ]
                )
                self._sig_bool(f"guard_{nid}", guard)
            # shifts past the window's reach all produce the same residual,
            # and no shift exceeds the span
            cap = iv.start if iv.end is None else iv.end
            shift = self._elapsed(m - 1)
            name = f"shout_{nid}"
            self.declare(name, "Int")
            self.add(f"(= {name} (ite (< {shift} {cap}) {shift} {cap}))")
            self.add(f"(>= {name} 0)")
            self.add(f"(<= {name} {min(cap, self.span)})")
            self.sig_ints.append(name)

    def _sig_bool(self, name: str, expr: str):
        self.declare(name, "Bool")
        self.add(f"(= {name} {expr})")
        self.sig_bools.append(name)

    def _prop(self, g: Formula, pos: int) -> str:
        """Truth of a propositional operand in the frontier state at `pos`."""
        if isinstance(g, TrueF):
            return "true"
        if isinstance(g, FalseF):
            return "false"
        if isinstance(g, (Atom, SumAtom)):
            return f"at_{pos}_{self.atom_id[g]}"
        if isinstance(g, Not):
            return f"(not {self._prop(g.operand, pos)})"
        op = {Or: "or", And: "and", Implies: "=>"}[type(g)]
        return f"({op} {' '.join(self._prop(h, pos) for h in operands(g))})"

    def _elapsed(self, pos: int) -> str:
        """Time from the base to position `pos`."""
        return f"(- tau_{pos + 1} {self.base})"

    def _inin(self, iv: Interval, pos: int) -> str:
        """The time elapsed from the base to position `pos` lies in iv."""
        diff = self._elapsed(pos)
        lower = f"(>= {diff} {iv.start})"
        if iv.end is None:
            return lower
        return _bool_fold("and", [lower, f"(< {diff} {iv.end})"])

    def encode(self) -> SmtProblem:
        self.encode_structure()
        self.encode_states()
        self.encode_timing()
        self.encode_summary()
        text = "\n".join(["(set-logic QF_LIA)"] + self.decls + self.asserts) + "\n"
        return SmtProblem(
            text=text,
            comp=self.c,
            floor=self.floor,
            carry=tuple(sorted(self.carry.items())),
            signature_bools=tuple(self.sig_bools),
            signature_ints=tuple(self.sig_ints),
            formula=self.f,
        )


def _int(v: int) -> str:
    return str(v) if v >= 0 else f"(- {-v})"


def encode(
    seg: Computation,
    f: Formula,
    floor: Optional[int] = None,
    carry: Optional[Mapping[str, State]] = None,
) -> SmtProblem:
    """Encode one segment (as a sub-computation) and formula as SMT-LIB text.

    Text is byte-identical across runs for identical inputs. `floor` bounds
    the first step's time from below; `carry` seeds per-process frontier
    state from earlier segments. Raises SegmentTooLargeError beyond
    VAR_BUDGET boolean variables.
    """
    return _Encoder(seg, simplify(f), floor, carry or {}).encode()


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverResult:
    status: str  # sat | unsat
    model: Optional[Dict[str, int]] = None  # bools decoded as 0/1


QUERY_END = "(check-sat)\n(get-model)\n"  # how every standalone query ends
_CHUNK = 1 << 16
# longest single wait in select(), which rejects waits past the platform's
# time_t; a longer timeout waits in several rounds
_MAX_WAIT = 86400.0
_SEXPR_MARKS = re.compile(rb'[()"]')


class SolverSession:
    """One solver process that keeps its assertions across the rounds of
    one enumeration: the SMT-LIB incremental use of `z3 -in` or
    `cvc5 --incremental --lang smt2`.

    Entering the `with` block starts the process; leaving it, on any exit,
    kills and reaps it. The solver's standard error goes to a temporary
    file, which cannot fill up and stall the solver the way an undrained
    pipe can. `run_solver` drives the rounds; `sent` is the assertion text
    the solver holds.
    """

    def __init__(self, command: str):
        self.argv = shlex.split(command)
        self.sent = ""
        self._out = bytearray()  # read from the solver and not yet consumed
        self._eof = False

    def __enter__(self) -> "SolverSession":
        self._err = tempfile.TemporaryFile()
        try:
            self._proc = subprocess.Popen(
                self.argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self._err,
                bufsize=0,
            )
        except OSError as exc:
            self._err.close()
            raise SolverCrashError(f"cannot run solver {self.argv[0]!r}: {exc}") from exc
        os.set_blocking(self._proc.stdin.fileno(), False)
        os.set_blocking(self._proc.stdout.fileno(), False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._proc.stdout, selectors.EVENT_READ)
        return self

    def __exit__(self, *exc_info):
        self._sel.close()
        self._proc.kill()
        self._proc.wait()
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._err.close()

    def exchange(self, data: bytes, reply_end, deadline: float) -> bytes:
        """Write `data`, then read until `reply_end(buffer)` gives the end
        of one reply, and return that reply. Reads while it writes, so a
        solver that prints early cannot stall both sides on full pipes.
        Raises SolverTimeoutError once `deadline` (a time.monotonic value)
        passes, and SolverCrashError when the solver closes its output
        before the reply is complete."""
        pending = memoryview(data)
        if pending:
            self._sel.register(self._proc.stdin, selectors.EVENT_WRITE)
        while True:
            if not pending:
                end = reply_end(self._out)
                if end is not None:
                    reply = bytes(self._out[:end])
                    del self._out[:end]
                    return reply
            if self._eof:
                raise SolverCrashError(self._crash_message(deadline))
            wait = deadline - time.monotonic()
            if wait <= 0:
                raise SolverTimeoutError("solver exceeded the per-query timeout")
            for key, _events in self._sel.select(min(wait, _MAX_WAIT)):
                if key.fileobj is self._proc.stdout:
                    chunk = os.read(key.fd, _CHUNK)
                    self._out += chunk
                    self._eof = not chunk
                    continue
                try:
                    pending = pending[os.write(key.fd, pending[:_CHUNK]):]
                except BrokenPipeError:  # it stopped reading: see what it said
                    pending = pending[:0]
                if not pending:
                    self._sel.unregister(self._proc.stdin)

    def _crash_message(self, deadline: float) -> str:
        try:
            code = self._proc.wait(max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        self._err.seek(0)
        err = " ".join(self._err.read(200).decode(errors="replace").split())
        return f"solver closed its output without an answer (exit {code}): {err}"


def _line_end(buf: bytearray) -> Optional[int]:
    """End of the first line in `buf` that is not blank."""
    i = buf.find(b"\n", len(buf) - len(buf.lstrip()))
    return None if i < 0 else i + 1


def _sexpr_end(buf: bytearray) -> Optional[int]:
    """End of the first balanced s-expression in `buf`, None until it is
    complete. Parentheses inside string literals do not count."""
    depth, quoted = 0, False
    for mark in _SEXPR_MARKS.finditer(buf):
        ch = mark.group()
        if ch == b'"':
            quoted = not quoted
        elif quoted:
            continue
        elif ch == b"(":
            depth += 1
        else:
            depth -= 1
            if depth <= 0:
                return mark.end()
    return None


def run_solver(text: str, session: SolverSession, timeout: float = DEFAULT_TIMEOUT) -> str:
    """Answer one round in `session` and return what the solver prints for
    `text` alone: the status line, then the model after sat.

    `text` is the round's standalone query: the session's assertions plus
    the new ones, then QUERY_END. Only the new assertions and (check-sat)
    are sent, and (get-model) only after sat. `timeout` bounds the writes
    as well as the reads."""
    body = text[: -len(QUERY_END)]
    if not (text.endswith(QUERY_END) and body.startswith(session.sent)):
        raise ValueError("query does not extend the solver session's assertions")
    deadline = time.monotonic() + timeout
    data = (body[len(session.sent):] + "(check-sat)\n").encode()
    session.sent = body
    status = session.exchange(data, _line_end, deadline).decode(errors="replace").strip()
    if status != "sat":
        return status + "\n"
    model = session.exchange(b"(get-model)\n", _sexpr_end, deadline)
    return f"sat\n{model.decode(errors='replace').strip()}\n"


def _parse_model(text: str) -> Dict[str, int]:
    from .refsolver import Unsupported, parse_sexprs, tokenize  # reuse the reader

    try:
        forms = parse_sexprs(tokenize(text))
    except Unsupported as exc:
        raise ModelDecodeError(f"unreadable model: {exc}") from None
    model: Dict[str, int] = {}

    def visit(form):
        if not isinstance(form, tuple):
            return
        if form and form[0] == "define-fun" and len(form) >= 5:
            name, _args, _sort, value = form[1], form[2], form[3], form[4]
            if value == "true":
                model[name] = 1
            elif value == "false":
                model[name] = 0
            else:
                try:
                    if isinstance(value, tuple) and value[0] == "-":
                        model[name] = -int(value[1])
                    else:
                        model[name] = int(value)
                except (ValueError, TypeError, IndexError):
                    raise ModelDecodeError(f"unparsable value for {name}: {value!r}")
        else:
            for sub in form:
                visit(sub)

    for form in forms:
        visit(form)
    return model


def solve(
    problem: SmtProblem,
    session: SolverSession,
    timeout: float = DEFAULT_TIMEOUT,
    blocks: Sequence[str] = (),
    emit_path: Optional[str] = None,
) -> SolverResult:
    """Run one round in `session`: the problem, then the blocking
    assertions, then check-sat. `emit_path`, when given, receives the
    round's standalone query."""
    text = problem.text + "".join(b + "\n" for b in blocks) + QUERY_END
    if emit_path:
        try:
            with open(emit_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise EmitError(str(exc)) from exc
    status, _, model = run_solver(text, session, timeout).partition("\n")
    if status == "unsat":
        return SolverResult("unsat")
    if status == "unknown":
        raise SolverCrashError("solver answered unknown")
    if status != "sat":
        raise SolverCrashError(f"unrecognized solver verdict {status!r}")
    return SolverResult("sat", _parse_model(model))


@dataclass(frozen=True)
class DecodedModel:
    order: Tuple[int, ...]
    times: Tuple[int, ...]


def decode_linearization(problem: SmtProblem, model: Mapping[str, int]) -> DecodedModel:
    """Extract the cut order and time assignment; re-check all structural
    constraints natively."""
    m, comp = problem.m, problem.comp
    col = {p: k for k, p in enumerate(comp.processes)}
    counts = [0] * len(col)  # the cut so far, as per-process prefix lengths
    order: List[int] = []
    times: List[int] = []
    for step in range(1, m + 1):
        added = [
            k
            for k in range(m)
            if model.get(f"rho_{step}_{k}") and not model.get(f"rho_{step - 1}_{k}")
        ]
        if len(added) != 1:
            raise ModelDecodeError(f"step {step} adds {len(added)} events")
        k = added[0]
        order.append(k)
        # the cut stays consistent iff k is next on its process and the cut
        # already holds everything its clock names
        own = col[comp.events[k].process]
        vec = comp.clock[k]
        if vec[own] != counts[own] or any(v > h for v, h in zip(vec, counts)):
            raise ModelDecodeError(f"cut at step {step} is not consistent")
        counts[own] += 1
        t = model.get(f"tau_{step}")
        if t is None:
            raise ModelDecodeError(f"model lacks tau_{step}")
        if t != model.get(f"delta_{k}"):
            raise ModelDecodeError(f"tau_{step} disagrees with delta_{k}")
        if t not in time_window(comp.events[k], comp.epsilon):
            raise ModelDecodeError(f"delta_{k}={t} outside its window")
        if times and t < times[-1]:
            raise ModelDecodeError("times decrease along the cut sequence")
        times.append(t)
    if problem.floor is not None and times and times[0] < problem.floor:
        raise ModelDecodeError("first time below the threaded floor")
    return DecodedModel(tuple(order), tuple(times))


def replay(problem: SmtProblem, decoded: DecodedModel) -> Tuple[Formula, int, int]:
    """Rewrite the branch formula over the decoded linearization through
    the memo the cut walk shares: shift it by the gap from the floor, then
    step each frontier state with the gap to the next time (0 at the end)."""
    times = decoded.times
    f = advance(None, problem.formula, 0 if problem.floor is None else times[0] - problem.floor)
    latest: Dict[str, State] = dict(problem.carry)
    for k, t, t2 in zip(decoded.order, times, times[1:] + times[-1:]):
        e = problem.comp.events[k]
        latest[e.process] = e.payload
        f = advance(shared(merge_frontier(latest)), f, t2 - t)
    return f, times[0], times[-1]


def blocking_assertion(problem: SmtProblem, model: Mapping[str, int]) -> str:
    """Exclude every model agreeing with this one on the decision bits."""
    parts: List[str] = []
    for name in problem.signature_bools:
        parts.append(name if model.get(name) else f"(not {name})")
    for name in problem.signature_ints:
        parts.append(f"(= {name} {_int(model.get(name, 0))})")
    if not parts:
        return "(assert false)"
    return "(assert (not " + _bool_fold("and", parts) + "))"


# ---------------------------------------------------------------------------
# Verdict enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Enumeration:
    """Outcome set of one segment, with threading data for the pipeline."""

    branches: Tuple[Tuple[Formula, int], ...]  # (rewritten formula, last time)
    complete: bool
    queries: int


def enumerate_verdicts(
    seg: Computation,
    f: Formula,
    max_verdicts: int,
    solver_command: str,
    floor: Optional[int] = None,
    carry: Optional[Mapping[str, State]] = None,
    timeout: float = DEFAULT_TIMEOUT,
    emit_dir: Optional[str] = None,
    emit_tag: str = "seg",
) -> Enumeration:
    """Encode once, then solve repeatedly, blocking each found decision
    class, until unsat or the verdict cap. Each sat model is decoded once
    (ModelDecodeError when it is not an admissible linearization) and
    replayed. Hitting the cap is not an error but flags the result
    incomplete. With `emit_dir`, query n is written to
    `<emit_dir>/<emit_tag>_q<n>.smt2` before it is solved."""
    if max_verdicts < 1:
        raise ValueError("max_verdicts must be >= 1")
    problem = encode(seg, f, floor, carry)
    if emit_dir:
        try:
            os.makedirs(emit_dir, exist_ok=True)
        except OSError as exc:
            raise EmitError(str(exc)) from exc
    blocks: List[str] = []
    found: List[Tuple[Formula, int]] = []
    seen: Set[Tuple[Formula, int]] = set()
    queries = 0
    with SolverSession(solver_command) as session:
        while True:
            emit_path = emit_dir and os.path.join(emit_dir, f"{emit_tag}_q{queries}.smt2")
            result = solve(problem, session, timeout, blocks, emit_path)
            queries += 1
            if result.status == "unsat":
                return Enumeration(tuple(found), True, queries)
            decoded = decode_linearization(problem, result.model)
            formula, _first, last = replay(problem, decoded)
            key = (formula, last)
            if key not in seen:
                seen.add(key)
                found.append(key)
            if len(found) >= max_verdicts:
                return Enumeration(tuple(found), False, queries)
            blocks.append(blocking_assertion(problem, result.model))
