import hashlib
import random

import pytest

from mtlmon import smt
from mtlmon.computation import Event, build_computation
from mtlmon.formula import TRUE, max_nesting
from mtlmon.oracle import enumerate_linearizations, oracle_progress
from mtlmon.parser import parse_spec
from mtlmon.semantics import State, Verdict, finalize
from mtlmon.smt import (
    ModelDecodeError,
    SegmentTooLargeError,
    SolverCrashError,
    blocking_assertion,
    bundled_solver_command,
    decode_linearization,
    encode,
    enumerate_verdicts,
    solve,
)
from support import bounded_computation, random_flat_formula, random_formula

CMD = bundled_solver_command()


def ev(proc, t, props=()):
    return Event(proc, t, State(frozenset(props)))


def fig3_computation():
    return build_computation(
        [ev("P1", 1, {"a"}), ev("P1", 4), ev("P2", 2, {"a"}), ev("P2", 5, {"b"})], 2
    )


def criterion_4_cases(n):
    """The first n (computation, formula) cases of the criterion-4 recipe:
    a nested formula every 7th case, flat ones otherwise."""
    rng = random.Random(20240)
    for case in range(n):
        if case % 7 == 3:
            c = bounded_computation(rng, max_events=5, epsilons=(1, 2), lin_cap=150)
            f = random_formula(rng, 2, constants=False)
            while max_nesting(f) < 2:
                f = random_formula(rng, 2, constants=False)
        else:
            c = bounded_computation(rng, max_events=8, lin_cap=900)
            f = random_flat_formula(rng)
        yield c, f


class TestEncode:
    def test_deterministic_text(self):
        c = fig3_computation()
        f = parse_spec("a U[0,6) b")
        assert encode(c, f).text == encode(c, f).text

    def test_symbol_scheme_present(self):
        c = fig3_computation()
        text = encode(c, parse_spec("a U[0,6) b")).text
        assert "(set-logic QF_LIA)" in text
        for sym in ("rho_1_0", "delta_0", "tau_1", "at_0_0", "span", "wit_0"):
            assert f"(declare-const {sym} " in text
        assert "(declare-const verdict_" not in text

    def test_variable_budget_enforced(self, monkeypatch):
        c = fig3_computation()
        encode(c, parse_spec("a U[0,6) b"))
        monkeypatch.setattr(smt, "VAR_BUDGET", 10)
        with pytest.raises(SegmentTooLargeError):
            encode(c, parse_spec("a U[0,6) b"))

    def test_text_pinned_on_the_criterion_4_recipe(self):
        """The first 20 cases of the criterion-4 recipe, encoded as the
        pipeline encodes them; the digest pins the query text against
        refactors of the encoder."""
        digest = hashlib.sha256()
        for c, f in criterion_4_cases(20):
            problem = encode(c, f, floor=None, carry={}, thread_timing=True)
            digest.update(problem.text.encode())
        assert digest.hexdigest() == (
            "6d11922204e512250476c85a8a0e34bd8aebcd0e584c567de9ad17b33f24a605"
        )

    def test_blocking_sequence_pinned(self, monkeypatch):
        """The blocking assertions the engine emits on the first cases of
        the criterion-4 recipe, in order; the digest pins the model
        sequence the bundled solver walks against refactors of the
        encoder."""
        blocks = []
        build = smt.blocking_assertion

        def recording(problem, model):
            blocks.append(build(problem, model))
            return blocks[-1]

        monkeypatch.setattr(smt, "blocking_assertion", recording)
        for c, f in criterion_4_cases(8):
            enumerate_verdicts(c, f, 129, CMD, thread_timing=True)
        assert len(blocks) == 37
        assert hashlib.sha256("\n".join(blocks).encode()).hexdigest() == (
            "161d2c4995803b06b023585eb042d0010c211990404089296c6646a2edaafb68"
        )

    def test_byte_identical_across_interpreter_runs(self, tmp_path):
        import os
        import subprocess
        import sys

        script = tmp_path / "emit.py"
        script.write_text(
            "from mtlmon.computation import Event, build_computation\n"
            "from mtlmon.semantics import State\n"
            "from mtlmon.parser import parse_spec\n"
            "from mtlmon.smt import encode\n"
            "evs = [Event('P1', 1, State(frozenset({'a'}))), Event('P1', 4, State()),\n"
            "       Event('P2', 2, State(frozenset({'a'}))),\n"
            "       Event('P2', 5, State(frozenset({'b'})))]\n"
            "import sys\n"
            "sys.stdout.write(encode(build_computation(evs, 2),"
            " parse_spec('a U[0,6) b & F[0,9) a')).text)\n"
        )
        outs = set()
        for seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, str(script)], capture_output=True, env=env, timeout=60
            )
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        assert len(outs) == 1


class TestSolve:
    def test_both_verdicts_reachable(self):
        c = fig3_computation()
        en = enumerate_verdicts(c, parse_spec("a U[0,6) b"), 16, CMD)
        assert {finalize(h) for h in en.formulas} == {Verdict.TOP, Verdict.BOTTOM}

    def test_decoded_model_is_a_real_linearization(self):
        c = fig3_computation()
        problem = encode(c, parse_spec("a U[0,6) b"))
        result = solve(problem, CMD)
        decoded = decode_linearization(problem, result.model)
        reference = {
            (tuple(l.events), l.times) for l in enumerate_linearizations(c)
        }
        events = tuple(problem.comp.events[k] for k in decoded.order)
        assert (events, decoded.times) in reference

    def test_malformed_output_raises(self):
        c = build_computation([ev("P1", 1)], 1)
        problem = encode(c, TRUE)
        with pytest.raises(SolverCrashError):
            solve(problem, "true")  # exits 0 with no output
        with pytest.raises(SolverCrashError):
            solve(problem, "echo gibberish")
        with pytest.raises(SolverCrashError):
            solve(problem, "echo unknown")

    def test_missing_solver_raises(self):
        c = build_computation([ev("P1", 1)], 1)
        with pytest.raises(SolverCrashError):
            solve(encode(c, TRUE), "/nonexistent/solver-binary")

    def test_slow_solver_raises_timeout(self):
        from mtlmon.smt import SolverTimeoutError

        c = build_computation([ev("P1", 1)], 1)
        with pytest.raises(SolverTimeoutError):
            solve(encode(c, TRUE), "sleep 30", timeout=0.2)


class TestEnumerateVerdicts:
    def test_matches_oracle_on_the_running_example(self):
        c = fig3_computation()
        f = parse_spec("a U[0,6) b")
        en = enumerate_verdicts(c, f, 16, CMD)
        assert en.complete
        assert en.formulas == oracle_progress(c, f)

    def test_swap_prefix_yields_both_shifted_windows(self):
        c = build_computation(
            [ev("apr", 1), ev("apr", 3), ev("ban", 1), ev("ban", 4)], 2
        )
        f = parse_spec("!apr_redeem_bob U[0,8) ban_redeem_alice")
        en = enumerate_verdicts(c, f, 8, CMD)
        assert parse_spec("!apr_redeem_bob U[0,4) ban_redeem_alice") in en.formulas
        assert parse_spec("!apr_redeem_bob U[0,3) ban_redeem_alice") in en.formulas

    def test_inadmissible_model_raises(self):
        # a sat answer whose model names no time for the first step
        fake = "printf 'sat\\n(model (define-fun rho_1_0 () Bool true))\\n'"
        with pytest.raises(ModelDecodeError):
            enumerate_verdicts(fig3_computation(), parse_spec("a U[0,6) b"), 16, fake)

    def test_cap_flags_incomplete(self):
        c = fig3_computation()
        f = parse_spec("a U[0,6) b")
        en = enumerate_verdicts(c, f, 1, CMD)
        assert not en.complete
        assert len(en.formulas) == 1

    def test_flat_random_segments_match_oracle(self):
        rng = random.Random(62)
        for _ in range(10):
            c = bounded_computation(rng, max_events=7, lin_cap=600)
            f = random_flat_formula(rng)
            en = enumerate_verdicts(c, f, 64, CMD)
            assert en.complete
            assert en.formulas == oracle_progress(c, f), str(f)

    def test_nested_random_segments_match_oracle(self):
        rng = random.Random(63)
        done = 0
        while done < 5:
            c = bounded_computation(rng, max_events=5, lin_cap=150, epsilons=(1, 2))
            f = random_formula(rng, 2, constants=False)
            if max_nesting(f) < 2:
                continue
            done += 1
            en = enumerate_verdicts(c, f, 64, CMD)
            assert en.complete
            assert en.formulas == oracle_progress(c, f), str(f)

    def test_threaded_timing_tracks_last_times(self):
        c = build_computation([ev("P1", 3, {"q"})], 3)
        f = parse_spec("p U[0,9) q")
        en = enumerate_verdicts(c, f, 16, CMD, thread_timing=True)
        assert en.complete
        # single event, window {1..5}: the witness fires at each time
        assert {last for _, last in en.branches} == {1, 2, 3, 4, 5}
        assert en.formulas == {TRUE}

    def test_blocking_assertion_mentions_signature(self):
        c = fig3_computation()
        problem = encode(c, parse_spec("a U[0,6) b"))
        result = solve(problem, CMD)
        block = blocking_assertion(problem, result.model)
        assert block.startswith("(assert (not")
        assert "wit_0" in block
