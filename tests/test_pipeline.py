import functools
import json
import random

import pytest

from mtlmon import cli, pipeline
from mtlmon.casegen import gen_random_computation
from mtlmon.cli import main as cli_main, write_jsonl
from mtlmon.computation import Event, build_computation
from mtlmon.formula import TRUE, max_nesting, shift_anchored, simplify
from mtlmon.oracle import enumerate_linearizations, oracle_verdicts
from mtlmon.parser import parse_spec
from mtlmon.pipeline import (
    ConfigError,
    IngestError,
    MonitorConfig,
    ingest,
    monitor,
)
from mtlmon.progression import progress
from mtlmon.semantics import State, Verdict, eval_finite
from mtlmon.smt import bundled_solver_command
from support import (
    bounded_computation,
    random_events,
    random_flat_formula,
    random_formula,
)

CMD = bundled_solver_command()


def ev(proc, t, props=()):
    return Event(proc, t, State(frozenset(props)))


class TestIngest:
    def test_round_trip(self, tmp_path):
        from mtlmon.casegen import conforming_two_party_vector, gen_two_party_log, ProtocolParams

        events = gen_two_party_log(conforming_two_party_vector(), ProtocolParams(delta=10))
        path = tmp_path / "log.jsonl"
        write_jsonl(events, str(path))
        back = ingest(str(path))
        assert back == events

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert ingest(str(path)) == []

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"proc": "P", "ts": 0}\nnot json\n')
        with pytest.raises(IngestError, match="bad.jsonl:2"):
            ingest(str(path))

    def test_negative_timestamp_rejected(self, tmp_path):
        path = tmp_path / "neg.jsonl"
        path.write_text('{"proc": "P", "ts": -1}\n')
        with pytest.raises(IngestError, match="non-negative"):
            ingest(str(path))

    def test_non_monotone_process_stream_rejected(self, tmp_path):
        path = tmp_path / "mono.jsonl"
        path.write_text('{"proc": "P", "ts": 5}\n{"proc": "P", "ts": 5}\n')
        with pytest.raises(IngestError, match="strictly increasing"):
            ingest(str(path))

    def test_variables_carry_forward_per_process(self, tmp_path):
        path = tmp_path / "vars.jsonl"
        path.write_text(
            '{"proc": "P", "ts": 1, "vars": {"to_a": 5}}\n'
            '{"proc": "P", "ts": 2, "props": ["x"]}\n'
            '{"proc": "Q", "ts": 3, "vars": {"to_a": 7}}\n'
        )
        events = ingest(str(path))
        assert events[1].payload.variables == {"to_a": 5}
        assert events[2].payload.variables == {"to_a": 7}

    def test_multiple_files_merge(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text('{"proc": "P1", "ts": 1, "props": ["x"]}\n')
        b.write_text('{"proc": "P2", "ts": 2, "props": ["y"]}\n')
        events = ingest([str(a), str(b)])
        assert [e.process for e in events] == ["P1", "P2"]


class TestMonitor:
    def test_constant_spec(self):
        events = [ev("P", 1), ev("P", 2)]
        report = monitor(events, TRUE, MonitorConfig(epsilon=1))
        assert report.verdicts == {Verdict.TOP}
        assert not report.truncated

    def test_two_segment_swap_window_mode(self):
        events = [
            ev("apr", 1), ev("apr", 3), ev("apr", 5), ev("apr", 7, {"apr_redeem_bob"}),
            ev("ban", 1), ev("ban", 4), ev("ban", 6), ev("ban", 7, {"ban_redeem_alice"}),
        ]
        phi = parse_spec("!apr_redeem_bob U[0,8) ban_redeem_alice")
        cfg = MonitorConfig(
            epsilon=2, segments=2, length=8, boundary="window",
            branch_cap=256, max_verdicts_per_segment=256,
        )
        report = monitor(events, phi, cfg)
        assert str(parse_spec("!apr_redeem_bob U[0,4) ban_redeem_alice")) in report.segments[0].branches
        assert str(parse_spec("!apr_redeem_bob U[0,3) ban_redeem_alice")) in report.segments[0].branches
        assert report.verdicts == {Verdict.TOP, Verdict.BOTTOM}

    def test_three_segment_single_process_chain(self):
        # the worked timeline as one legal process (no duplicate timestamps):
        # rewrite chain lands on shifted untils, closing to top
        events = [
            ev("P", 1), ev("P", 2), ev("P", 3, {"r"}), ev("P", 4),
            ev("P", 5), ev("P", 6), ev("P", 7, {"q"}), ev("P", 8, {"p"}),
        ]
        phi = parse_spec("F[0,6) r -> (!p U[2,9) q)")
        report = monitor(events, phi, MonitorConfig(epsilon=1, segments=3, length=9))
        assert report.verdicts == {Verdict.TOP}
        # branch table shows each segment's output; the event-free gap to
        # the next segment is applied when that segment consumes it
        assert report.segments[0].branches == [str(parse_spec("!p U[0,7) q"))]
        assert report.segments[1].branches == [str(parse_spec("!p U[0,4) q"))]
        assert report.segments[2].branches == ["true"]

    def test_single_trace_degeneration(self):
        rng = random.Random(19)
        events = random_events(rng, 1, 6)
        c = build_computation(events, 1)
        (lin,) = enumerate_linearizations(c)
        f = random_formula(rng, 2)
        report = monitor(events, f, MonitorConfig(epsilon=1, segments=1))
        assert report.verdicts == {eval_finite(lin.trace, f, 0)}

    def test_segmentation_invariance_exact_mode(self):
        rng = random.Random(20)
        for _ in range(25):
            c = bounded_computation(rng, max_events=7, lin_cap=800)
            events = list(c.events)
            f = random_formula(rng, rng.randrange(1, 3))
            base = oracle_verdicts(c, f)
            for g in (1, 2, 3):
                cfg = MonitorConfig(
                    epsilon=c.epsilon, segments=g,
                    branch_cap=4096, max_verdicts_per_segment=4096,
                )
                assert monitor(events, f, cfg).verdicts == base

    def test_engine_agreement(self):
        rng = random.Random(21)
        for _ in range(4):
            c = bounded_computation(rng, max_events=5, lin_cap=150, epsilons=(1, 2))
            events = list(c.events)
            from support import random_flat_formula

            f = random_flat_formula(rng)
            for g in (1, 2):
                enum_cfg = MonitorConfig(
                    epsilon=c.epsilon, segments=g,
                    branch_cap=512, max_verdicts_per_segment=512,
                )
                smt_cfg = MonitorConfig(
                    epsilon=c.epsilon, segments=g, engine="smt", solver_command=CMD,
                    branch_cap=512, max_verdicts_per_segment=512,
                )
                a = monitor(events, f, enum_cfg)
                b = monitor(events, f, smt_cfg)
                assert a.verdicts == b.verdicts, (str(f), g)

    def test_truncation_is_flagged_and_subset(self):
        events = [
            ev("apr", 1), ev("apr", 3), ev("apr", 5), ev("apr", 7, {"apr_redeem_bob"}),
            ev("ban", 1), ev("ban", 4), ev("ban", 6), ev("ban", 7, {"ban_redeem_alice"}),
        ]
        phi = parse_spec("!apr_redeem_bob U[0,8) ban_redeem_alice")
        full = monitor(
            events, phi,
            MonitorConfig(epsilon=2, segments=2, length=8, boundary="window",
                          branch_cap=4096, max_verdicts_per_segment=4096),
        )
        assert not full.truncated
        capped = monitor(
            events, phi,
            MonitorConfig(epsilon=2, segments=2, length=8, boundary="window",
                          branch_cap=2, max_verdicts_per_segment=2),
        )
        assert capped.truncated
        assert capped.verdicts <= full.verdicts

    def test_eps2_long_log_completes(self):
        # 400 events at eps 2 in 40 segments: enumerating each
        # linearization exceeded the state budget on this log
        comp = gen_random_computation(7, processes=3, events=400, epsilon=2, max_gap=4)
        cfg = MonitorConfig(
            epsilon=2, segments=40, branch_cap=512, max_verdicts_per_segment=512
        )
        report = monitor(list(comp.events), parse_spec("G (p -> F[0,12) q)"), cfg)
        assert not report.truncated
        assert report.verdicts == {Verdict.TOP}

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MonitorConfig(epsilon=0).validate()
        with pytest.raises(ConfigError):
            MonitorConfig(epsilon=1, engine="smt").validate()
        with pytest.raises(ConfigError):
            MonitorConfig(epsilon=1, boundary="sloppy").validate()

    def test_report_json_schema(self):
        events = [ev("P", 1), ev("P", 2)]
        report = monitor(events, TRUE, MonitorConfig(epsilon=1, segments=2))
        payload = report.to_json()
        assert set(payload) == {"verdicts", "segments", "truncated"}
        assert payload["verdicts"] == ["true"]
        for seg in payload["segments"]:
            assert set(seg) == {"index", "range", "events", "branches", "ms"}


class TestCutWalk:
    # an Until whose left operand is temporal: the old whole-trace rewrite
    # of this shape did not compose over segments
    TEMPORAL_LEFT = parse_spec("F[0,5) q U[1,7) G[2,inf) p")

    def test_outcomes_equal_oracle_per_call(self, monkeypatch):
        """Criterion-4 recipe in window mode with g in {1, 2, 3}, so that
        floors and carries occur: every walk's (residual, last time) set
        equals the rewrite over each linearization."""
        calls = []
        walk = pipeline._walk_cuts

        def recording(sub, phi, floor, carry, budget):
            out = walk(sub, phi, floor, carry, budget)
            calls.append((sub, phi, floor, dict(carry), out))
            return out

        monkeypatch.setattr(pipeline, "_walk_cuts", recording)
        rng = random.Random(30303)
        for case in range(200):
            if case % 7 == 3:
                comp = bounded_computation(rng, max_events=5, epsilons=(1, 2), lin_cap=150)
                f = random_formula(rng, 2, constants=False)
                while max_nesting(f) < 2:
                    f = random_formula(rng, 2, constants=False)
            else:
                comp = bounded_computation(rng, max_events=8, lin_cap=900)
                f = random_flat_formula(rng)
            for phi in (f, self.TEMPORAL_LEFT) if case % 10 == 0 else (f,):
                for g in (1, 2, 3):
                    cfg = MonitorConfig(
                        epsilon=comp.epsilon, segments=g, boundary="window",
                        branch_cap=4096, max_verdicts_per_segment=4096,
                    )
                    monitor(list(comp.events), phi, cfg)
        assert sum(floor is not None for _, _, floor, _, _ in calls) > 500
        for sub, phi, floor, carry, out in calls:
            want = set()
            for lin in enumerate_linearizations(sub, floor=floor, carry=carry):
                gap = 0 if floor is None else lin.times[0] - floor
                residual = simplify(progress(lin.trace, shift_anchored(phi, gap)))
                want.add((residual, lin.times[-1]))
            assert out == want, (str(phi), floor)

    def test_verdict_cap_keeps_sorted_prefix(self):
        events = [ev("P1", 1, {"a"}), ev("P1", 4), ev("P2", 2, {"a"}), ev("P2", 5, {"b"})]
        phi = parse_spec("a U[0,6) b")
        full = monitor(events, phi, MonitorConfig(epsilon=2, max_verdicts_per_segment=512))
        capped = monitor(events, phi, MonitorConfig(epsilon=2, max_verdicts_per_segment=2))
        assert not full.truncated and capped.truncated
        assert capped.segments[0].branches == full.segments[0].branches[:2]

    def test_budget_counts_lattice_states(self):
        events = [ev("P1", 1, {"a"}), ev("P1", 4), ev("P2", 2, {"a"}), ev("P2", 5, {"b"})]
        phi = parse_spec("a U[0,6) b")
        with pytest.raises(pipeline.OracleBudgetError):
            monitor(events, phi, MonitorConfig(epsilon=2, oracle_budget=3))


class TestCli:
    def _fig3(self, tmp_path):
        trace = tmp_path / "fig3.jsonl"
        lines = [
            {"proc": "P1", "ts": 1, "props": ["a"]},
            {"proc": "P1", "ts": 4, "props": []},
            {"proc": "P2", "ts": 2, "props": ["a"]},
            {"proc": "P2", "ts": 5, "props": ["b"]},
        ]
        trace.write_text("".join(json.dumps(l) + "\n" for l in lines))
        spec = tmp_path / "until.mtl"
        spec.write_text("a U[0,6) b\n")
        return str(trace), str(spec)

    def test_violation_exit_code_and_json(self, tmp_path, capsys):
        trace, spec = self._fig3(tmp_path)
        code = cli_main([
            "--trace", trace, "--spec", spec, "--epsilon", "2", "--format", "json",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["verdicts"] == ["false", "true"]

    def test_pass_exit_code(self, tmp_path, capsys):
        trace, spec = self._fig3(tmp_path)
        true_spec = tmp_path / "t.mtl"
        true_spec.write_text("true")
        code = cli_main(["--trace", trace, "--spec", str(true_spec), "--epsilon", "2"])
        capsys.readouterr()
        assert code == 0

    def test_smt_requires_solver_command(self, tmp_path, capsys):
        trace, spec = self._fig3(tmp_path)
        code = cli_main([
            "--trace", trace, "--spec", spec, "--epsilon", "2", "--engine", "smt",
        ])
        capsys.readouterr()
        assert code == 64

    def test_bad_flag_is_usage_error(self, capsys):
        assert cli_main(["monitor", "--no-such-flag"]) == 64
        capsys.readouterr()

    def test_unreadable_file_is_data_error(self, tmp_path, capsys):
        spec = tmp_path / "s.mtl"
        spec.write_text("true")
        code = cli_main([
            "--trace", str(tmp_path / "missing.jsonl"), "--spec", str(spec),
            "--epsilon", "1",
        ])
        capsys.readouterr()
        assert code == 65

    def test_budget_exhaustion_exits_70(self, tmp_path, capsys, monkeypatch):
        trace, spec = self._fig3(tmp_path)
        monkeypatch.setattr(
            cli, "MonitorConfig", functools.partial(MonitorConfig, oracle_budget=3)
        )
        code = cli_main(["--trace", trace, "--spec", spec, "--epsilon", "2"])
        err = capsys.readouterr().err
        assert code == 70
        assert err.startswith("mtlmon: ") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_emit_smt_writes_queries(self, tmp_path, capsys):
        trace, spec = self._fig3(tmp_path)
        dump = tmp_path / "queries"
        code = cli_main([
            "--trace", trace, "--spec", spec, "--epsilon", "2",
            "--engine", "smt", "--solver-cmd", CMD, "--emit-smt", str(dump),
        ])
        capsys.readouterr()
        assert code == 1
        files = list(dump.glob("*.smt2"))
        assert files
        assert "(check-sat)" in files[0].read_text()
