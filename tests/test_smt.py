import ast
import hashlib
import os
import random
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from mtlmon import refsolver, smt
from mtlmon.casegen import gen_random_computation
from mtlmon.cli import main as cli_main, write_jsonl
from mtlmon.computation import Event, build_computation
from mtlmon.formula import FALSE, TRUE, max_nesting, shift_anchored
from mtlmon.oracle import TimedTrace, enumerate_linearizations, progress
from mtlmon.parser import parse_spec
from mtlmon.pipeline import MonitorConfig, monitor
from mtlmon.semantics import State, Verdict, finalize, merge_frontier
from mtlmon.smt import (
    ModelDecodeError,
    SegmentTooLargeError,
    SolverCrashError,
    SolverSession,
    SolverTimeoutError,
    blocking_assertion,
    bundled_solver_command,
    decode_linearization,
    encode,
    enumerate_verdicts,
    solve,
)
from support import (
    bounded_computation,
    cut_before,
    held_at,
    oracle_pairs,
    random_events,
    random_flat_formula,
    random_formula,
    segment_with_messages,
)

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


@pytest.fixture
def spawned(monkeypatch):
    """The solver processes started while the test runs, from an empty
    idle slot; the slot is emptied again afterwards."""
    smt._close_idle()
    procs = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    yield procs
    smt._close_idle()


class TestEncode:
    def test_deterministic_text(self):
        c = fig3_computation()
        f = parse_spec("a U[0,6) b")
        assert encode(c, f).text == encode(c, f).text

    def test_symbol_scheme_present(self):
        c = fig3_computation()
        text = encode(c, parse_spec("a U[0,6) b")).text
        assert "(set-logic QF_LIA)" in text
        for sym in ("rho_1_0", "delta_0", "tau_1", "at_0_0", "last", "wit_0"):
            assert f"(declare-const {sym} " in text
        for sym in ("verdict_", "first ", "span "):
            assert f"(declare-const {sym}" not in text

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
            problem = encode(c, f)
            digest.update(problem.text.encode())
        assert digest.hexdigest() == (
            "445faf66a492a996e39a3599b25c94158d6fb979f3753ea82681980384069319"
        )

    def test_text_pinned_on_middle_segments(self, tmp_path):
        """Every --emit-smt text of the solver engine through `monitor` in
        window mode at g in {2, 3}, on criterion-4 logs and on logs with
        messages, so that queries carry floors, payloads held at the base
        cut and receives whose sends lie past the segment; the digest pins
        the query text of later segments against refactors of the
        encoder."""
        rng = random.Random(2)
        comps = [c for c, _ in criterion_4_cases(6)]
        comps += [segment_with_messages(rng)[0] for _ in range(4)]
        # the first segment takes the receive at P2@3 but not its send
        comps.append(build_computation([
            ev("P1", 1, {"p"}), Event("P2", 3, State(frozenset({"q"})), "recv", "m"),
            Event("P1", 4, State(), "send", "m"), ev("P2", 6, {"p"}),
        ], 2))
        digest, floors = hashlib.sha256(), 0
        for n, c in enumerate(comps):
            f = random_flat_formula(rng)
            for g in (2, 3):
                out = tmp_path / f"log{n}_g{g}"
                cfg = MonitorConfig(
                    epsilon=c.epsilon, segments=g, boundary="window", engine="smt",
                    solver_command=CMD, emit_smt_dir=str(out),
                )
                monitor(list(c.events), f, cfg)
                for path in sorted(out.iterdir()):
                    text = path.read_text()
                    floors += "(assert (>= tau_1 " in text
                    digest.update(f"{path.name}\n{text}".encode())
        assert floors > 20
        assert digest.hexdigest() == (
            "60d65d8c9ed2350010570fa49b1839e5d93d35e5bd29c1afdc371eff3a8273e9"
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
            enumerate_verdicts(c, f, 129, CMD)
        assert len(blocks) == 19
        assert hashlib.sha256("\n".join(blocks).encode()).hexdigest() == (
            "dd6aa8af5ef4a59c40b5b593ed0716f9d8ead622bbd5345b06d434aeca0d06ae"
        )

    def test_outcomes_pinned_on_long_chains(self):
        """Specs with chains of three or more operands over small random
        logs; the digest pins each enumeration's query count and outcome
        set against refactors of the formula nodes and the encoder."""
        digest = hashlib.sha256()
        for spec in (
            "F[0,5) p & G[0,4) q & F[1,6) r",
            "F[0,8) (p & q & r) | G[0,3) (p | q | !r)",
            "(p U[0,6) q) & F[2,9) r & G[0,5) !p & F[0,3) q",
        ):
            f = parse_spec(spec)
            for seed in range(6):
                c = gen_random_computation(seed, processes=2, events=5, epsilon=2, max_gap=3)
                result = enumerate_verdicts(c, f, 64, CMD)
                outcomes = sorted((str(g), last) for g, last in result.branches)
                digest.update(repr((result.queries, outcomes)).encode())
        assert digest.hexdigest() == (
            "d925e105fa7823c12d99242e24620c00f117388f9962d7fb34bf322ad3e7283f"
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
        assert {finalize(h) for h, _ in en.branches} == {Verdict.TOP, Verdict.BOTTOM}

    def test_decoded_model_is_a_real_linearization(self):
        c = fig3_computation()
        problem = encode(c, parse_spec("a U[0,6) b"))
        with SolverSession(CMD) as session:
            result = solve(problem, session)
        decoded = decode_linearization(problem, result.model)
        reference = {
            (tuple(l.events), l.times) for l in enumerate_linearizations(c)
        }
        events = tuple(c.events[i] for i in decoded.order)
        assert (events, decoded.times) in reference

    def test_malformed_output_raises(self):
        c = build_computation([ev("P1", 1)], 1)
        problem = encode(c, TRUE)
        for command in ("true", "echo gibberish", "echo unknown"):  # true: no output
            with pytest.raises(SolverCrashError):
                with SolverSession(command) as session:
                    solve(problem, session)
        with pytest.raises(SolverCrashError, match=r"\(exit 3\): Traceback line$"):
            with SolverSession("sh -c 'printf \"Traceback\\nline\\n\" >&2; exit 3'") as session:
                solve(problem, session)

    def test_missing_solver_raises(self):
        with pytest.raises(SolverCrashError):
            with SolverSession("/nonexistent/solver-binary"):
                pass

    def test_slow_solver_raises_timeout(self):
        c = build_computation([ev("P1", 1)], 1)
        with pytest.raises(SolverTimeoutError):
            with SolverSession("sleep 30") as session:
                solve(encode(c, TRUE), session, timeout=0.2)

    def test_session_answers_equal_standalone_runs(self, monkeypatch, spawned):
        """Every round the session answers, on the first cases of the
        criterion-4 recipe, is byte for byte what the bundled solver
        prints for the round's standalone query, the text --emit-smt
        writes. After unsat the session asks for no model, so there the
        standalone answer's first line, the status, is compared. All the
        cases run on one solver start, so every round after the first
        case is answered by a reused session."""
        rounds = []
        ask = smt.run_solver

        def checked(text, session, timeout=smt.DEFAULT_TIMEOUT):
            rounds.append(ask(text, session, timeout))
            expected = refsolver.run(text)
            if not expected.startswith("sat\n"):
                expected = expected.split("\n", 1)[0] + "\n"
            assert rounds[-1] == expected
            return rounds[-1]

        monkeypatch.setattr(smt, "run_solver", checked)
        for c, f in criterion_4_cases(8):
            enumerate_verdicts(c, f, 129, CMD)
        assert len(rounds) == 27
        assert sum(r.startswith("sat\n(model\n") for r in rounds) == 19
        assert len(spawned) == 1

    def test_bundled_command_survives_a_space_in_the_interpreter_path(
        self, tmp_path, monkeypatch
    ):
        spaced = tmp_path / "my py"
        spaced.mkdir()
        (spaced / "python3").symlink_to(sys.executable)
        monkeypatch.setattr(sys, "executable", str(spaced / "python3"))
        command = bundled_solver_command()
        en = enumerate_verdicts(fig3_computation(), parse_spec("a U[0,6) b"), 16, command)
        assert {finalize(h) for h, _ in en.branches} == {Verdict.TOP, Verdict.BOTTOM}


    def test_bundled_command_needs_no_pythonpath(self, monkeypatch):
        """The bundled solver runs as a bare script, so a caller that puts
        src/ on sys.path but not on PYTHONPATH can still start it."""
        monkeypatch.delenv("PYTHONPATH", raising=False)
        en = enumerate_verdicts(
            fig3_computation(), parse_spec("a U[0,6) b"), 16, bundled_solver_command()
        )
        assert {finalize(h) for h, _ in en.branches} == {Verdict.TOP, Verdict.BOTTOM}


class TestModelReader:
    """`smt._parse_model` reads a (get-model) reply in the layouts SMT-LIB
    2.6 allows, and nothing else."""

    def test_a_define_fun_over_several_lines(self):
        text = "(model\n  (define-fun rho_1_0\n    ()\n    Bool\n    true)\n  (define-fun tau_1 () Int\n    7)\n)"
        assert smt._parse_model(text) == {"rho_1_0": 1, "tau_1": 7}

    def test_a_negative_numeral(self):
        text = "(model (define-fun d () Int (- 3)) (define-fun e () Int ( -  12 )))"
        assert smt._parse_model(text) == {"d": -3, "e": -12}

    def test_no_model_head(self):
        text = "(\n(define-fun a () Bool false)\n(define-fun b () Int 0)\n)"
        assert smt._parse_model(text) == {"a": 0, "b": 0}

    def test_the_bundled_solvers_models(self):
        """The first model the bundled solver prints for each of the first
        cases of the criterion-4 recipe reads as the values it holds."""
        for c, f in criterion_4_cases(8):
            executor = refsolver.Executor()
            text = encode(c, f).text + smt.QUERY_END
            *_, status, model = [executor.execute(form)
                                 for form in refsolver.parse_sexprs(refsolver.tokenize(text))]
            assert status == "sat"
            assert smt._parse_model(model) == {
                name: int(value) for name, value in executor.model.items()
            }

    @pytest.mark.parametrize("text", [
        "",
        "(model (define-fun a () Bool maybe))",
        "(model (define-fun a () Bool true)",
        "(model (define-fun a () Bool true)) (define-fun b () Bool true)",
        "(model (define-fun f ((x Int)) Int x))",
        "(models (define-fun a () Bool true))",
        "(model (define-fun a () Int (- x)))",
        "(error \"model is not available\")",
    ])
    def test_anything_else_is_a_decode_error(self, text):
        with pytest.raises(ModelDecodeError):
            smt._parse_model(text)

    def test_smt_does_not_import_the_bundled_solver(self):
        """The bundled solver runs in its own process; the engine reads its
        replies without its reader."""
        tree = ast.parse(Path(smt.__file__).read_text(encoding="utf-8"))
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
        imported |= {n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        assert not any("refsolver" in name for name in imported)

    def test_a_malformed_reply_exits_69(self, tmp_path, capsys, spawned):
        """Through the CLI a reply the reader cannot place is a solver
        error: one line, exit 69, and the solver is stopped."""
        trace, spec = tmp_path / "log.jsonl", tmp_path / "spec.mtl"
        write_jsonl(fig3_computation().events, str(trace))
        spec.write_text("a U[0,6) b\n")
        fake = "sh -c \"printf 'sat\\n(model (define-fun rho_1_0 () Bool yes))\\n'; exec sleep 30\""
        code = cli_main(["monitor", "--trace", str(trace), "--spec", str(spec),
                         "--epsilon", "2", "--engine", "smt", "--solver-cmd", fake])
        err = capsys.readouterr().err
        assert code == 69
        assert err.startswith("mtlmon: solver error: unreadable model") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert len(spawned) == 1 and spawned[0].poll() is not None


class TestSessionLifetime:
    """A solver process outlives its enumeration only as the one idle
    session, and only when the enumeration ended normally."""

    @pytest.mark.parametrize(
        "command, cap, timeout, error",
        [
            pytest.param("sleep 30", 16, 0.2, SolverTimeoutError, id="timeout"),
            pytest.param("sh -c 'echo gibberish; exec sleep 30'", 16, 60, SolverCrashError, id="crash"),
            pytest.param(
                "sh -c \"printf 'sat\\n(model (define-fun rho_1_0 () Bool true))\\n'; exec sleep 30\"",
                16, 60, ModelDecodeError, id="decode",
            ),
        ],
    )
    def test_no_solver_outlives_its_enumeration(self, spawned, command, cap, timeout, error):
        c, f = fig3_computation(), parse_spec("a U[0,6) b")
        with pytest.raises(error):
            enumerate_verdicts(c, f, cap, command, timeout=timeout)
        assert len(spawned) == 1
        assert spawned[0].poll() is not None

    @pytest.mark.parametrize("cap", [pytest.param(16, id="unsat"), pytest.param(1, id="cap")])
    def test_finished_enumeration_parks_its_solver(self, spawned, cap):
        """Ended by unsat or by the verdict cap, the enumeration leaves its
        solver running as the idle session, which the exit hook reaps."""
        en = enumerate_verdicts(fig3_computation(), parse_spec("a U[0,6) b"), cap, CMD)
        assert en.complete == (cap > 1)
        assert len(spawned) == 1
        assert spawned[0].poll() is None
        smt._close_idle()
        assert spawned[0].poll() is not None

    def test_one_process_serves_calls_segments_and_branches(self, spawned):
        """Two monitor calls, the second over two segments whose second
        one threads several branches, run on one solver start, and give
        the enumerate engine's report."""
        events = [
            ev("apr", 1), ev("apr", 3), ev("apr", 5), ev("apr", 7, {"apr_redeem_bob"}),
            ev("ban", 1), ev("ban", 4), ev("ban", 6), ev("ban", 7, {"ban_redeem_alice"}),
        ]
        phi = parse_spec("!apr_redeem_bob U[0,8) ban_redeem_alice")
        reports = []
        for engine, segments in (("smt", 1), ("smt", 2), ("enumerate", 2)):
            cfg = MonitorConfig(
                epsilon=2, segments=segments, length=8, boundary="window", engine=engine,
                solver_command=CMD, branch_cap=256, max_verdicts_per_segment=256,
            )
            reports.append(monitor(events, phi, cfg).to_json())
        assert len(reports[1]["segments"][0]["branches"]) > 1
        for report in reports:
            for seg in report["segments"]:
                del seg["ms"]
        assert reports[1] == reports[2]
        assert len(spawned) == 1
        assert spawned[0].poll() is None

    def test_another_command_displaces_the_idle_session(self, spawned):
        c, f = fig3_computation(), parse_spec("a U[0,6) b")
        other = f"{shlex.quote(sys.executable)} -m mtlmon.refsolver"
        first = enumerate_verdicts(c, f, 16, CMD)
        second = enumerate_verdicts(c, f, 16, other)
        assert first == second
        assert len(spawned) == 2
        assert spawned[0].poll() is not None
        assert spawned[1].poll() is None and smt._idle.command == other

    def test_threads_never_share_a_session(self, spawned):
        """Four threads, with a short switch interval, enumerate at once:
        each gets its own answers, and only the idle session's process is
        left running."""
        c, f = fig3_computation(), parse_spec("a U[0,6) b")
        expected = enumerate_verdicts(c, f, 16, CMD)
        results, interval = [], sys.getswitchinterval()

        def work():
            for _ in range(3):
                results.append(enumerate_verdicts(c, f, 16, CMD))

        threads = [threading.Thread(target=work) for _ in range(4)]
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 12
        assert [p for p in spawned if p.poll() is None] == [smt._idle._proc]

    def test_no_solver_outlives_the_interpreter(self):
        """A child interpreter that monitored through the solver engine
        leaves no solver behind once it has exited, and collects no
        unclosed pipe or file on the way out."""
        script = (
            "from mtlmon import smt\n"
            "from mtlmon.computation import Event\n"
            "from mtlmon.parser import parse_spec\n"
            "from mtlmon.pipeline import MonitorConfig, monitor\n"
            "from mtlmon.semantics import State\n"
            "events = [Event('P1', 1, State(frozenset({'a'}))), Event('P2', 2, State(frozenset()))]\n"
            "cfg = MonitorConfig(epsilon=2, engine='smt', solver_command=smt.bundled_solver_command())\n"
            "monitor(events, parse_spec('F[0,3) a'), cfg)\n"
            "print(smt._idle._proc.pid)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", script],
            capture_output=True, timeout=60,
        )
        assert proc.returncode == 0 and proc.stderr == b""
        with pytest.raises(ProcessLookupError):
            os.kill(int(proc.stdout), 0)


class TestEnumerateVerdicts:
    def test_matches_oracle_on_the_running_example(self):
        c = fig3_computation()
        f = parse_spec("a U[0,6) b")
        en = enumerate_verdicts(c, f, 16, CMD)
        assert en.complete
        assert set(en.branches) == oracle_pairs(c, f)

    def test_swap_prefix_yields_both_shifted_windows(self):
        c = build_computation(
            [ev("apr", 1), ev("apr", 3), ev("ban", 1), ev("ban", 4)], 2
        )
        f = parse_spec("!apr_redeem_bob U[0,8) ban_redeem_alice")
        formulas = {g for g, _ in enumerate_verdicts(c, f, 8, CMD).branches}
        assert parse_spec("!apr_redeem_bob U[0,4) ban_redeem_alice") in formulas
        assert parse_spec("!apr_redeem_bob U[0,3) ban_redeem_alice") in formulas

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
        assert len(en.branches) == 1

    def test_flat_random_segments_match_oracle(self):
        rng = random.Random(62)
        for _ in range(10):
            c = bounded_computation(rng, max_events=7, lin_cap=600)
            f = random_flat_formula(rng)
            en = enumerate_verdicts(c, f, 64, CMD)
            assert en.complete
            assert set(en.branches) == oracle_pairs(c, f), str(f)

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
            assert set(en.branches) == oracle_pairs(c, f), str(f)

    def test_threaded_timing_tracks_last_times(self):
        c = build_computation([ev("P1", 3, {"q"})], 3)
        f = parse_spec("p U[0,9) q")
        en = enumerate_verdicts(c, f, 16, CMD)
        assert en.complete
        # single event, window {1..5}: the witness fires at each time
        assert set(en.branches) == {(TRUE, t) for t in (1, 2, 3, 4, 5)}

    def test_outcomes_with_a_floor_equal_oracle(self):
        """With a floor, the windows are measured from it. By hand: with
        floor 0, p at time 4 lies inside F[0,5) and p at 5 or 6 does not,
        whatever the first time is, so both residuals occur at every last
        time. Then logs of 3-4 events on 1-2 processes that start a few
        units past a drawn floor, with flat specs. Measuring the windows
        from the first time instead loses outcomes on the 2nd and the 30th
        drawn log."""
        hand = build_computation([ev("P1", 3), ev("P1", 5, {"p"}), ev("P1", 7)], 2)
        spec = parse_spec("F[0,5) p")
        assert oracle_pairs(hand, spec, 0) == {
            (g, last) for g in (TRUE, FALSE) for last in (6, 7, 8)
        }
        cases = [(hand, spec, 0)]
        rng = random.Random(2)
        for _ in range(40):
            eps = rng.choice((1, 2, 3))
            evs = random_events(
                rng, rng.randrange(1, 3), rng.randrange(3, 5), spread=2 * eps + 1, prop_rate=0.5
            )
            late = rng.randrange(2, 7)
            c = build_computation([Event(e.process, e.local_time + late, e.payload) for e in evs], eps)
            f = random_flat_formula(rng)
            cases.append((c, f, rng.randrange(0, min(e.local_time for e in c.events) + 1)))
        for c, f, floor in cases:
            en = enumerate_verdicts(c, f, 256, CMD, floor=floor)
            assert en.complete
            assert set(en.branches) == oracle_pairs(c, f, floor), (str(f), floor)

    def test_middle_segments_equal_oracle(self):
        """Segments of 3-5 events from the middle of longer logs with
        messages, under drawn floors: the processes hold payloads at the
        base cut, and a receive may lie in the segment while its send lies
        past it. The outcomes equal the rewrite over every linearization
        of the restricted segment, from the payloads held at its base
        cut."""
        rng = random.Random(12)
        for _ in range(12):
            comp, consumed = segment_with_messages(rng, max_events=5, epsilons=(1, 2), lin_cap=150)
            sub, carry = comp.restrict(consumed), held_at(comp, cut_before(comp, consumed.start))
            assert carry
            f = random_flat_formula(rng) if rng.random() < 0.75 else random_formula(rng, 2)
            start = min(e.local_time for e in sub.events)
            floor = rng.choice([None] + list(range(start + sub.epsilon + 2)))
            en = enumerate_verdicts(comp, f, 256, CMD, floor=floor, consumed=consumed)
            assert en.complete
            assert set(en.branches) == oracle_pairs(sub, f, floor, carry), (str(f), floor)

    def test_blocking_assertion_mentions_signature(self):
        c = fig3_computation()
        problem = encode(c, parse_spec("a U[0,6) b"))
        with SolverSession(CMD) as session:
            result = solve(problem, session)
        block = blocking_assertion(problem, result.model)
        assert block.startswith("(assert (not")
        assert "wit_0" in block


def reference_replay(problem, decoded):
    """Replay without the rewrite memo: a TimedTrace of the merged
    frontiers from the payloads held at the segment's base cut,
    progressed after shifting the anchored windows by the gap from the
    floor."""
    comp, consumed = problem.seg.comp, problem.seg.consumed
    latest = held_at(comp, cut_before(comp, consumed.start))
    states = []
    for i in decoded.order:
        e = comp.events[i]
        latest[e.process] = e.payload
        states.append(merge_frontier(latest.values()))
    trace = TimedTrace(tuple(states), decoded.times)
    gap = 0 if problem.floor is None else decoded.times[0] - problem.floor
    formula = progress(trace, shift_anchored(problem.formula, gap))
    return formula, decoded.times[0], decoded.times[-1]


class TestReplay:
    def test_memoized_replay_equals_the_reference_fold(self, monkeypatch):
        """Every decoded model of the first criterion-4 cases, each run
        once whole and once from a drawn event on with a drawn floor, so
        that the processes hold payloads at the segment's base cut:
        `replay`, which goes through the rewrite memo, equals the fold of
        `progress` from the payloads `held_at` reads off that cut."""
        replays = []
        real = smt.replay

        def checking(problem, decoded):
            out = real(problem, decoded)
            replays.append((out, reference_replay(problem, decoded), problem))
            return out

        monkeypatch.setattr(smt, "replay", checking)
        rng = random.Random(4)
        for c, f in criterion_4_cases(12):
            later = range(rng.randrange(1, len(c)), len(c))
            start = c.events[later.start].local_time
            enumerate_verdicts(c, f, 129, CMD)
            enumerate_verdicts(c, f, 129, CMD, floor=rng.randrange(start + 1), consumed=later)
        later = [p for _, _, p in replays if p.seg.consumed.start]
        assert len(later) > 20
        assert all(p.floor is not None and any(p.seg.held) for p in later)
        for out, ref, problem in replays:
            assert out == ref, problem.floor


@pytest.fixture(scope="class")
def session_rounds(tmp_path_factory):
    """tag -> the --emit-smt texts of the first criterion-4 cases, in
    round order."""
    emitted = tmp_path_factory.mktemp("emitted")
    for case, (c, f) in enumerate(criterion_4_cases(8)):
        enumerate_verdicts(c, f, 129, CMD, emit_dir=str(emitted), emit_tag=f"c{case}")
    rounds = {}
    for path in emitted.iterdir():
        tag, n = path.stem.rsplit("_q", 1)
        rounds.setdefault(tag, []).append((int(n), path.read_text()))
    return {tag: [text for _, text in sorted(texts)] for tag, texts in rounds.items()}


def replay(executor, rounds):
    """Feed `executor` the lines the session sends for `rounds`, as the
    bundled solver's `main` reads them: (reset), then each round's new
    lines, (check-sat), and (get-model) after sat. Returns the answers."""
    answers = []
    for tag in sorted(rounds):
        assert list(executor.feed("(reset)\n")) == []
        sent = ""
        for text in rounds[tag]:
            body = text[: -len(smt.QUERY_END)]
            for line in body[len(sent):].splitlines(keepends=True):
                assert list(executor.feed(line)) == []
            sent = body
            answers += executor.feed("(check-sat)\n")
            if answers[-1] == "sat":
                answers += executor.feed("(get-model)\n")
    return answers


class TestSolverCost:
    """Counts of the bundled solver's work on the session traffic of the
    first criterion-4 cases. They do not depend on the machine, so they
    can gate its cost; a change that raises one says why. Each replay
    starts from a new executor, whose line table is empty."""

    DECISIONS = 223  # `Solver._assign` calls in one replay
    COMPILED = 587  # assertions the first replay compiles

    @pytest.fixture
    def counted(self, monkeypatch):
        """(decisions, compiled assertions) made since the last clear."""
        made, compiled = [], []
        assign, compile_ = refsolver.Solver._assign, refsolver.Problem.compile_assertion
        monkeypatch.setattr(refsolver.Solver, "_assign", lambda s, v, x: made.append(v) or assign(s, v, x))
        monkeypatch.setattr(refsolver.Problem, "compile_assertion",
                            lambda s, t: compiled.append(t) or compile_(s, t))
        return made, compiled

    def test_session_traffic_stays_within_its_decisions(self, session_rounds, counted):
        made, _ = counted
        answers = replay(refsolver.Executor(), session_rounds)
        statuses = [a for a in answers if not a.startswith("(model")]
        assert (len(statuses), statuses.count("sat")) == (27, 19)
        assert len(made) <= self.DECISIONS

    def test_a_second_replay_compiles_nothing(self, session_rounds, counted):
        """The problems repeat their lines, so one process compiles each
        distinct assertion once: the second replay reads every line from
        the table, and answers as the first did."""
        made, compiled = counted
        executor = refsolver.Executor()
        first = replay(executor, session_rounds)
        assert len(compiled) <= self.COMPILED
        made.clear()
        compiled.clear()
        assert replay(executor, session_rounds) == first
        assert compiled == []
        assert len(made) <= self.DECISIONS

    def test_the_line_table_stays_within_its_cap(self, monkeypatch, counted):
        """Past TABLE_CAP lines the table is emptied, and then it fills
        again: a line read since is not compiled again."""
        _, compiled = counted
        monkeypatch.setattr(refsolver, "TABLE_CAP", 8)
        executor = refsolver.Executor()
        lines = ["(declare-const x Int)\n"]
        lines += [f"(assert (and (>= x 0) (<= x {k})))\n" for k in range(21, 0, -1)]
        sizes = []
        for line in lines:
            assert list(executor.feed(line)) == []
            sizes.append(len(executor.lines))
        assert max(sizes) == 8 and sizes[-1] == len(lines) % 8
        again = "(reset)\n" + lines[0] + "".join(lines[-sizes[-1]:]) + "(check-sat)\n(get-model)\n"
        expected = refsolver.run(again)
        compiled.clear()
        answers = [out for line in again.splitlines(keepends=True) for out in executor.feed(line)]
        assert "".join(out + "\n" for out in answers) == expected
        assert compiled == []


class TestSolverRounds:
    """Solver rounds, one per check-sat, that the solver engine spends on
    the smt-corpus inputs, the first 20 criterion-4 cases. Each outcome
    takes one round, each enumeration ends with an unsat one, and the rest
    are models that repeat an outcome; which models those are depends on
    the least model the solver answers, so a solver that answers another
    model changes the count. Pinned exactly: a change that moves them says
    why."""

    QUERIES = 147  # rounds over the 20 cases
    OUTCOMES = 78  # distinct (residual, last) outcomes over the 20 cases
    NESTED = 28  # rounds of case 17, whose formula nests timed operators

    def test_smt_corpus_rounds(self):
        runs = [enumerate_verdicts(c, f, 128, CMD) for c, f in criterion_4_cases(20)]
        assert all(en.complete for en in runs)
        assert sum(en.queries for en in runs) == self.QUERIES
        assert sum(len(set(en.branches)) for en in runs) == self.OUTCOMES
        assert runs[17].queries == self.NESTED
