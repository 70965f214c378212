import os
import select
import subprocess
import sys
import time

from mtlmon.refsolver import run


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
        proc = subprocess.Popen(
            [sys.executable, "-m", "mtlmon.refsolver"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )

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
            proc.wait()
