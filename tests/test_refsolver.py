import os
import select
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from mtlmon import refsolver
from mtlmon.refsolver import Executor, Solver, parse_sexprs, run, tokenize
from mtlmon.smt import bundled_solver_command
from reference import least_model


def solve(text: str) -> str:
    return run(text)


class TestSolver:
    def test_sat_with_model(self):
        out = solve(
            """
            (set-logic QF_LIA)
            (declare-const x Int)
            (declare-const b Bool)
            (assert (>= x 2)) (assert (<= x 5))
            (assert (=> b (= x 3)))
            (assert b)
            (check-sat) (get-model)
            """
        )
        lines = out.splitlines()
        assert lines[0] == "sat"
        assert "(define-fun x () Int 3)" in out
        assert "(define-fun b () Bool true)" in out

    def test_unsat(self):
        out = solve(
            "(declare-const x Int)(assert (>= x 2))(assert (< x 2))(check-sat)"
        )
        assert out.splitlines()[0] == "unsat"

    def test_cardinality_forcing(self):
        out = solve(
            """
            (declare-const a Bool)(declare-const b Bool)(declare-const c Bool)
            (assert (= (+ (ite a 1 0) (ite b 1 0) (ite c 1 0)) 2))
            (assert (not a))
            (check-sat)(get-model)
            """
        )
        assert out.splitlines()[0] == "sat"
        assert "(define-fun b () Bool true)" in out
        assert "(define-fun c () Bool true)" in out

    def test_equality_chains_propagate(self):
        out = solve(
            """
            (declare-const x Int)(declare-const y Int)(declare-const z Int)
            (assert (>= x 0)) (assert (<= x 4))
            (assert (>= y 0)) (assert (<= y 9))
            (assert (>= z 0)) (assert (<= z 9))
            (assert (= y (+ x 2)))
            (assert (= z (- y x)))
            (assert (> x 3))
            (check-sat)(get-model)
            """
        )
        assert out.splitlines()[0] == "sat"
        assert "(define-fun x () Int 4)" in out
        assert "(define-fun y () Int 6)" in out
        assert "(define-fun z () Int 2)" in out

    def test_boolean_structure(self):
        out = solve(
            """
            (declare-const a Bool)(declare-const b Bool)
            (assert (or a b))
            (assert (not (and a b)))
            (assert (not a))
            (check-sat)(get-model)
            """
        )
        assert out.splitlines()[0] == "sat"
        assert "(define-fun b () Bool true)" in out

    def test_unbounded_int_answers_unknown(self):
        out = solve("(declare-const x Int)(assert (>= x 2))(check-sat)")
        assert out.splitlines()[0] == "unknown"

    def test_large_finite_bounds_answer_sat(self):
        """Epoch-scale times: a finite bound is a bound however large."""
        out = solve(
            "(declare-const x Int)(assert (>= x 1700000000000))"
            "(assert (<= x 1700000000003))(check-sat)(get-model)"
        )
        assert out.splitlines()[0] == "sat"
        assert "(define-fun x () Int 1700000000000)" in out

    def test_declaration_drops_the_model(self):
        out = solve(
            "(declare-const x Int)(assert (>= x 2))(assert (<= x 5))(check-sat)"
            "(declare-const y Bool)(get-model)(check-sat)(get-model)"
        )
        assert out.splitlines()[:2] == ["sat", '(error "model is not available")']
        assert "(define-fun y () Bool false)" in out

    def test_thousands_of_constants_need_no_deep_recursion(self):
        """The search loops over its decision frames instead of recursing
        once per constant, so the recursion limit does not bound the
        number of constants."""
        script = "".join(f"(declare-const b{i} Bool)" for i in range(3000))
        assert run(script + "(assert b2999)(check-sat)") == "sat\n"

    def test_unsupported_sort_reported_as_unknown(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mtlmon.refsolver"],
            input=b"(declare-const a (Array Int Int))(check-sat)",
            stdout=subprocess.PIPE,
            timeout=30,
        )
        assert proc.stdout.decode().splitlines()[0] == "unknown"

    def test_negative_literals(self):
        out = solve(
            """
            (declare-const x Int)
            (assert (>= x (- 5))) (assert (<= x (- 2)))
            (check-sat)(get-model)
            """
        )
        assert out.splitlines()[0] == "sat"
        assert "(- " in out  # negative value printed in SMT-LIB form


def _int(k: int) -> str:
    return str(k) if k >= 0 else f"(- {-k})"


class TestResume:
    """Each check-sat goes on with the search that found the last sat
    model, yet answers exactly what a fresh search of the declarations and
    assertions so far answers."""

    @staticmethod
    def literal(data, sorts):
        name = data.draw(st.sampled_from(sorted(sorts)))
        if sorts[name] == "Bool":
            return data.draw(st.sampled_from([name, f"(not {name})"]))
        k = _int(data.draw(st.integers(-3, 4)))
        return data.draw(st.sampled_from(
            [f"(<= {name} {k})", f"(>= {name} {k})", f"(= {name} {k})", f"(not (= {name} {k}))"]
        ))

    @staticmethod
    def kept_by(model, data, sorts):
        """An assertion that `model` satisfies."""
        name = data.draw(st.sampled_from(sorted(model)))
        val = model[name]
        if sorts[name] == "Bool":
            return name if val else f"(not {name})"
        op = data.draw(st.sampled_from(["<=", ">=", "="]))
        return f"({op} {name} {_int(val)})"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_answers_equal_fresh_runs(self, data):
        executor, script, sorts = Executor(), [], {}

        def send(command: str):
            script.append(command)
            (form,) = parse_sexprs(tokenize(command))
            assert executor.execute(form) is None

        def declare():
            name = f"v{len(sorts)}"
            sorts[name] = data.draw(st.sampled_from(["Bool", "Int"]))
            send(f"(declare-const {name} {sorts[name]})")
            if sorts[name] == "Int":
                lo = data.draw(st.integers(-3, 1))
                send(f"(assert (>= {name} {_int(lo)}))")
                send(f"(assert (<= {name} {_int(lo + data.draw(st.integers(0, 4)))}))")

        def check():
            answers = [executor.execute(("check-sat",))]
            if answers[0] == "sat":
                answers.append(executor.execute(("get-model",)))
            asked = "(check-sat)" + "(get-model)" * (len(answers) - 1)
            assert "".join(a + "\n" for a in answers) == run("".join(script) + asked)

        for _ in range(data.draw(st.integers(1, 3))):
            declare()
        check()
        for _ in range(data.draw(st.integers(1, 24))):
            step = data.draw(st.sampled_from(["assert", "assert", "kept", "declare", "check"]))
            if step == "declare":
                declare()
            elif step == "kept" and executor.status == "sat":
                clause = [self.kept_by(executor.model, data, sorts)]
                clause += [self.literal(data, sorts) for _ in range(data.draw(st.integers(0, 1)))]
                send(f"(assert (or {' '.join(clause)}))")
            elif step != "check":
                clause = [self.literal(data, sorts) for _ in range(data.draw(st.integers(1, 3)))]
                send(f"(assert (or {' '.join(clause)}))")
            check()

    def test_resumed_search_makes_fewer_decisions(self, monkeypatch):
        """A later check-sat goes on from the last model's leaf, with the
        decisions above it kept, instead of searching again from the
        first value. (The squares keep the bounds from narrowing.)"""
        calls = []
        assign = Solver._assign
        monkeypatch.setattr(Solver, "_assign", lambda s, v, x: calls.append(v) or assign(s, v, x))
        forms = parse_sexprs(tokenize(
            "(declare-const x Int)(assert (>= x 0))(assert (<= x 50))"
            "(check-sat)(assert (> (* x x) 400))(check-sat)(assert (> (* x x) 900))(check-sat)"
        ))
        executor = Executor()
        for form in forms[:-1]:
            executor.execute(form)
        calls.clear()
        assert executor.execute(forms[-1]) == "sat"
        resumed = len(calls)
        calls.clear()
        assert Solver(executor.problem).solve() == ("sat", executor.model) == ("sat", {"x": 31})
        assert resumed < len(calls)


def ask(executor, text: str) -> str:
    """Execute every command of `text`; returns what they print."""
    outs = (executor.execute(form) for form in parse_sexprs(tokenize(text)))
    return "".join(out + "\n" for out in outs if out is not None)


@pytest.fixture
def decisions(monkeypatch):
    """The (variable, value) of every decision the solver makes."""
    made = []
    assign = Solver._assign
    monkeypatch.setattr(Solver, "_assign", lambda s, v, x: made.append((v, x)) or assign(s, v, x))
    return made


class TestKeptSearch:
    """Edge cases of going on from the last model: each answer equals a
    fresh run of the whole script, and the decisions show where the
    search went on from."""

    ASK = "(check-sat)(get-model)"

    def check(self, executor, script, more, decisions):
        """Send `more` after `script`, ask, and compare with a fresh run;
        returns the decisions the asking took."""
        decisions.clear()
        answer, made = ask(executor, more + self.ASK), list(decisions)
        assert run(script) + answer == run(script + more + self.ASK)
        return made

    def test_a_model_that_satisfies_the_new_assertion_is_answered_again(self, decisions):
        script = ("(declare-const x Int)(declare-const b Bool)(assert (>= x 0))(assert (<= x 4))"
                  "(assert (or b (>= x 2)))" + self.ASK)
        executor = Executor()
        ask(executor, script)
        assert executor.model == {"x": 0, "b": True}
        assert self.check(executor, script, "(assert (>= (+ x 1) 1))", decisions) == []
        assert executor.model == {"x": 0, "b": True}

    def test_a_new_assertion_false_at_the_first_decision_pops_every_frame(self, decisions):
        """With no assertion the least model is all false, three decisions
        deep; once `a` is asserted, no other value of `b` or `c` under
        a = false is tried."""
        script = "(declare-const a Bool)(declare-const b Bool)(declare-const c Bool)" + self.ASK
        executor = Executor()
        ask(executor, script)
        made = self.check(executor, script, "(assert a)", decisions)
        assert made == [("a", True), ("b", False), ("c", False)]

    def test_a_tighter_bound_after_sat_cuts_the_kept_frame(self, decisions):
        """The last model is x = 0, y = 5; once y <= 3 is asserted, y has no
        value left under x = 0, and none above the new bound is tried."""
        script = ("(declare-const x Int)(declare-const y Int)(assert (>= x 0))(assert (<= x 9))"
                  "(assert (>= y 0))(assert (<= y 9))(assert (or (>= x 1) (>= y 5)))" + self.ASK)
        executor = Executor()
        ask(executor, script)
        assert executor.model == {"x": 0, "y": 5}
        assert self.check(executor, script, "(assert (<= y 3))", decisions) == [("x", 1), ("y", 0)]
        assert executor.model == {"x": 1, "y": 0}

    def test_false_after_sat_is_unsat_and_the_next_search_starts_afresh(self, monkeypatch):
        built = []

        class Counted(Solver):
            def __init__(self, problem):
                built.append(problem)
                super().__init__(problem)

        monkeypatch.setattr(refsolver, "Solver", Counted)
        script = "(declare-const x Int)(assert (>= x 0))(assert (<= x 3))" + self.ASK
        executor = Executor()
        ask(executor, script)
        assert ask(executor, "(assert false)(check-sat)") == "unsat\n"
        assert len(built) == 1
        assert ask(executor, "(assert (>= x 1))(check-sat)") == "unsat\n"
        assert len(built) == 2
        more = "(assert false)(check-sat)(assert (>= x 1))(check-sat)"
        assert run(script + more).endswith(")\nunsat\nunsat\n")


class TestAgainstBruteForce:
    """The answers equal an independent reference: `least_model` tries
    every assignment in order with its own evaluator."""

    def term(self, data, sorts, sort, depth):
        pick = lambda options: data.draw(st.sampled_from(options))  # noqa: E731
        names = [n for n in sorts if sorts[n] == sort]
        if sort == "Int":
            kind = pick(["lit"] + ["var"] * bool(names) + ["+", "ite"] * bool(depth))
            if kind == "lit":
                return _int(data.draw(st.integers(-3, 4)))
            if kind == "var":
                return pick(names)
            if kind == "+":
                return f"(+ {self.term(data, sorts, 'Int', depth - 1)} {self.term(data, sorts, 'Int', depth - 1)})"
            return (f"(ite {self.term(data, sorts, 'Bool', depth - 1)} "
                    f"{self.term(data, sorts, 'Int', depth - 1)} {self.term(data, sorts, 'Int', depth - 1)})")
        kind = pick(["var"] * bool(names) + ["<=", "="] + ["not", "and", "or", "=>", "iff", "ite"] * bool(depth))
        if kind == "var":
            return pick(names)
        if kind in ("<=", "="):
            return f"({kind} {self.term(data, sorts, 'Int', 0)} {self.term(data, sorts, 'Int', 0)})"
        arity = {"not": 1, "ite": 3}.get(kind, 2)
        subs = " ".join(self.term(data, sorts, "Bool", depth - 1) for _ in range(arity))
        return f"({'=' if kind == 'iff' else kind} {subs})"

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_fresh_and_session_answers_equal_the_least_model(self, data):
        executor, script, sorts, domains = Executor(), [], {}, {}

        def send(command: str):
            script.append(command)
            assert ask(executor, command) == ""

        def declare():
            name = f"v{len(sorts)}"
            sorts[name] = data.draw(st.sampled_from(["Bool", "Int"]))
            send(f"(declare-const {name} {sorts[name]})")
            if sorts[name] == "Int":
                lo = data.draw(st.integers(-3, 1))
                domains[name] = range(lo, lo + data.draw(st.integers(1, 5)))
                send(f"(assert (>= {name} {_int(lo)}))(assert (<= {name} {_int(domains[name][-1])}))")

        for _ in range(data.draw(st.integers(1, 3))):
            declare()
        for _ in range(data.draw(st.integers(1, 10))):
            step = data.draw(st.sampled_from(["assert", "assert", "declare", "check"]))
            if step == "declare" and len(sorts) < 4:
                declare()
            elif step == "assert":
                send(f"(assert {self.term(data, sorts, 'Bool', data.draw(st.integers(0, 2)))})")
            model = least_model("".join(script), domains)
            if model is None:
                expected = "unsat\n"
            else:
                rows = "".join(
                    f"  (define-fun {n} () {sorts[n]} {str(v).lower() if sorts[n] == 'Bool' else _int(v)})\n"
                    for n, v in model.items()
                )
                expected = f"sat\n(model\n{rows})\n"
            asked = "(check-sat)" + "(get-model)" * (model is not None)
            assert run("".join(script) + asked) == expected
            assert ask(executor, asked) == expected


class TestReset:
    """`(reset)` empties the solver, so one process can answer one problem
    after another as separate processes would."""

    FIRST = (
        "(declare-const x Int)(declare-const b Bool)(assert (>= x 0))(assert (<= x 5))"
        "(assert (or b (>= x 3)))(check-sat)(get-model)(assert (not b))(check-sat)(get-model)"
    )
    SECOND = (
        "(declare-const b Bool)(declare-const x Int)(assert (>= x (- 2)))(assert (<= x 4))"
        "(assert (=> b (= x 1)))(check-sat)(get-model)(assert b)(check-sat)(get-model)"
    )

    def test_same_names_declare_again_and_answer_as_a_fresh_run(self):
        assert run(self.FIRST + "(reset)" + self.SECOND) == run(self.FIRST) + run(self.SECOND)

    def test_reset_drops_status_model_and_kept_search(self):
        """The first problem's last model is x = 3, and its search is kept;
        the second problem's least model, x = 0, lies below it. After the
        reset the executor answers the second problem as a fresh run does,
        so nothing of the first search is left to start from."""
        executor = Executor()
        first = "(declare-const x Int)(assert (>= x 0))(assert (<= x 5))(assert (>= x 3))"
        for form in parse_sexprs(tokenize(first + "(check-sat)")):
            executor.execute(form)
        assert executor.model == {"x": 3}
        assert executor.execute(("reset",)) is None
        assert executor.execute(("get-model",)) == '(error "model is not available")'
        second = "(declare-const x Int)(assert (>= x 0))(assert (<= x 5))(check-sat)(get-model)"
        outs = [executor.execute(form) for form in parse_sexprs(tokenize(second))]
        assert "".join(o + "\n" for o in outs if o is not None) == run(second)
        assert executor.model == {"x": 0}


class TestMalformedInput:
    """Malformed input is refused like unsupported input: `unknown`, one
    reason line, exit status 1, no traceback."""

    @pytest.mark.parametrize(
        "script",
        [
            "(declare-const x)",
            "(assert)",
            "(declare-const x Int)(assert (= x (ite)))(check-sat)",
            "(declare-const x Int)(declare-const x Int)(check-sat)",
            "(declare-const b Bool)(declare-fun b () Bool)",
            "(declare-const x Int)(assert (+ x 1))",
            "(declare-const b Bool)(assert (< b 1))",
            "(declare-const b Bool)(assert (=> b b b))",
            "(check-sat 1)",
            "(declare-const b Bool)(assert " + "(not " * 5000 + "b" + ")" * 5001 + "(check-sat)",
            "(declare-const b Bool)(reset b)(check-sat)",
        ],
        ids=["declare-no-sort", "assert-nothing", "ite-no-args", "redeclare-const",
             "redeclare-fun", "int-assertion", "bool-compared", "implies-three", "check-sat-arg",
             "nested-5000", "reset-arg"],
    )
    def test_refused_with_unknown(self, script):
        proc = subprocess.run(
            shlex.split(bundled_solver_command()),
            input=script.encode(),
            capture_output=True,
            timeout=30,
        )
        lines = proc.stdout.decode().splitlines()
        assert proc.returncode == 1
        assert lines[-2] == "unknown" and lines[-1].startswith("; ")
        assert proc.stderr == b""


class TestProcessInterface:
    def test_reads_stdin_writes_stdout(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mtlmon.refsolver"],
            input=b"(declare-const b Bool)(assert b)(check-sat)(get-model)",
            stdout=subprocess.PIPE,
            timeout=30,
        )
        out = proc.stdout.decode()
        assert out.splitlines()[0] == "sat"
        assert "define-fun b" in out

    def test_answers_each_check_sat_before_stdin_closes(self):
        """Driven interactively, the solver answers every command that
        prints as soon as it arrives, and keeps its assertions across
        rounds."""
        with subprocess.Popen(
            [sys.executable, "-m", "mtlmon.refsolver"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        ) as proc:  # leaving the block closes both pipes and waits

            def ask(command: bytes, ends: bytes) -> str:
                proc.stdin.write(command)
                out, deadline = b"", time.monotonic() + 30
                while not out.endswith(ends):
                    ready, _, _ = select.select([proc.stdout], [], [], deadline - time.monotonic())
                    assert ready, f"no answer to {command!r} while stdin is open"
                    out += os.read(proc.stdout.fileno(), 4096)
                return out.decode()

            try:
                problem = b"(declare-const x Int)\n(assert (>= x 1))\n(assert (<= x 3))\n"
                assert ask(problem + b"(check-sat)\n", b"\n") == "sat\n"
                assert "(define-fun x () Int 1)" in ask(b"(get-model)\n", b")\n")
                assert ask(b"(assert (> x 1))\n(check-sat)\n", b"\n") == "sat\n"
                assert "(define-fun x () Int 2)" in ask(b"(get-model)\n", b")\n")
                assert ask(b"(assert (not (= x 2)))\n(check-sat)\n", b"\n") == "sat\n"
                assert "(define-fun x () Int 3)" in ask(b"(get-model)\n", b")\n")
                assert ask(b"(assert (< x 3))(check-sat)\n", b"\n") == "unsat\n"
                assert proc.poll() is None
            finally:
                proc.kill()
