import contextlib
import importlib.resources
import io
import json
import os
import random
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from mtlmon import casegen, cli, pipeline, progression, smt
from mtlmon.casegen import gen_random_computation
from mtlmon.cli import event_to_json, main as cli_main, write_jsonl
from mtlmon.computation import Event, build_computation
from mtlmon.errors import BudgetExceeded
from mtlmon.formula import (
    TRUE,
    Atom,
    Interval,
    SumAtom,
    max_nesting,
    mk_and,
    mk_eventually,
    mk_globally,
    mk_implies,
    mk_not,
)
from mtlmon.oracle import enumerate_linearizations
from mtlmon.parser import parse_spec
from mtlmon.pipeline import (
    ConfigError,
    IngestError,
    MonitorConfig,
    ingest,
    monitor,
)
from mtlmon.semantics import State, Verdict
from mtlmon.smt import bundled_solver_command
from reference import eval_finite, oracle_verdicts
from support import (
    bounded_computation,
    oracle_pairs,
    random_events,
    random_flat_formula,
    random_formula,
)

CMD = bundled_solver_command()


def ev(proc, t, props=()):
    return Event(proc, t, State(frozenset(props)))


class TestIngest:
    def test_round_trip(self, tmp_path):
        from mtlmon.casegen import gen_two_party_log, ProtocolParams
        from reference import conforming_two_party_vector

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

    @pytest.mark.parametrize(
        "content",
        [
            b"[1, 2]",
            b"null",
            b'"P1"',
            b'{"proc": "P1", "ts": true}',
            b'{"proc": "P1", "ts": 1, "vars": {"to_a": false}}',
            b'{"proc": "P1", "ts": 1, "kind": "send", "msg": [1]}',
            b'{"proc": "P1", "ts": 1, "props": ["\xff"]}',
            b'{"proc": null, "ts": 1}',
            b'{"proc": [1], "ts": 1}',
            b'{"proc": "", "ts": 1}',
            b'{"proc": 7, "ts": 1}',
        ],
    )
    def test_malformed_line_rejected(self, tmp_path, content):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(content + b"\n")
        with pytest.raises(IngestError, match="bad.jsonl"):
            ingest(str(path))


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
        inputs = []
        for _ in range(4):
            c = bounded_computation(rng, max_events=5, lin_cap=150, epsilons=(1, 2))
            inputs.append((list(c.events), c.epsilon, random_flat_formula(rng)))
        # the second segment starts 10 past its floor: its window bits must
        # be measured from the floor, or the solver engine reports only ⊤
        inputs.append((
            [ev("P1", 0), ev("P1", 10), ev("P1", 12, {"p"}), ev("P1", 14)],
            2, parse_spec("F[0,13) p"),
        ))
        for events, epsilon, f in inputs:
            for g in (1, 2):
                enum_cfg = MonitorConfig(
                    epsilon=epsilon, segments=g,
                    branch_cap=512, max_verdicts_per_segment=512,
                )
                smt_cfg = MonitorConfig(
                    epsilon=epsilon, segments=g, engine="smt", solver_command=CMD,
                    branch_cap=512, max_verdicts_per_segment=512,
                )
                a = monitor(events, f, enum_cfg)
                b = monitor(events, f, smt_cfg)
                assert a.verdicts == b.verdicts, (str(f), g)

    def test_engines_give_one_report_at_any_epoch(self):
        """Small logs at eps 1-2, flat and nested specs, g in {1, 2, 3},
        exact and window boundaries: both engines write the same JSON
        report, without `ms`. In exact mode, shifting a log by 3 or by
        1.7e12 leaves both engines' verdict sets unchanged, provided no
        skew window is clamped at 0 (see the next test), so the shifts
        start from the log lifted until no timestamp is below eps - 1. The
        solver engine once failed at the epoch scale, because the bundled
        solver took integer bounds past 10^8 for unbounded ones."""
        rng = random.Random(18)
        for case in range(15):
            c = bounded_computation(rng, max_events=5, epsilons=(1, 2), lin_cap=150)
            if case % 3 == 2:
                f = random_formula(rng, 2, constants=False)
                while max_nesting(f) < 2:
                    f = random_formula(rng, 2, constants=False)
            else:
                f = random_flat_formula(rng)
            events = list(c.events)
            lift = max(0, c.epsilon - 1 - min(e.local_time for e in events))
            unclamped = _shifted(events, lift)
            moved = [_shifted(unclamped, shift) for shift in (3, 1_700_000_000_000)]
            for g in (1, 2, 3):
                for boundary in ("exact", "window"):
                    cfgs = [
                        MonitorConfig(
                            epsilon=c.epsilon, segments=g, boundary=boundary,
                            engine=engine, solver_command=CMD,
                            branch_cap=512, max_verdicts_per_segment=512,
                        )
                        for engine in ("enumerate", "smt")
                    ]
                    reports = [monitor(events, f, cfg) for cfg in cfgs]
                    enum_json, smt_json = (_untimed(r.to_json()) for r in reports)
                    assert enum_json == smt_json, (str(f), g, boundary)
                    if boundary == "exact":
                        for cfg, report in zip(cfgs, reports):
                            want = report.verdicts
                            if lift:
                                want = monitor(unclamped, f, cfg).verdicts
                            for log in moved:
                                assert monitor(log, f, cfg).verdicts == want, (
                                    str(f), g, cfg.engine, log[0].local_time,
                                )

    def test_engines_give_one_report_on_sum_atoms(self):
        """Small logs whose events carry running `to_*`/`from_*` totals,
        flat and nested `sum(to:x) >= sum(from:y) + k` specs, g in {1, 2}:
        both engines write the same JSON report, without `ms`. At g = 2
        the second segment starts from the totals carried over the
        boundary."""
        rng = random.Random(20)
        for _ in range(16):
            c = bounded_computation(rng, max_events=5, epsilons=(1, 2), lin_cap=150)
            events = []
            totals = {}
            for e in c.events:  # each process's totals only grow
                run = totals.setdefault(e.process, {"to_alice": 0, "from_bob": 0})
                key = rng.choice(sorted(run))
                run[key] += rng.randrange(0, 3)
                events.append(Event(e.process, e.local_time, State(e.payload.props, run)))
            atom = f"sum(to:alice) >= sum(from:bob) + {rng.randrange(0, 3)}"
            lo = rng.randrange(0, 3)
            hi = lo + rng.randrange(1, 6)
            spec = rng.choice([
                f"F[{lo},{hi}) {atom}",
                f"G[{lo},{hi}) {atom}",
                f"p U[{lo},{hi}) {atom}",
                f"G[0,{hi}) (p -> F[{lo},{hi}) {atom})",
                f"G[{lo},{hi}) ({atom} | F[0,{hi}) q)",
            ])
            f = parse_spec(spec)
            for g in (1, 2):
                reports = [
                    monitor(events, f, MonitorConfig(
                        epsilon=c.epsilon, segments=g, engine=engine, solver_command=CMD,
                        branch_cap=512, max_verdicts_per_segment=512,
                    ))
                    for engine in ("enumerate", "smt")
                ]
                enum_json, smt_json = (_untimed(r.to_json()) for r in reports)
                assert enum_json == smt_json, (spec, g)

    @pytest.mark.parametrize("engine", ["enumerate", "smt"])
    def test_clamped_window_moves_the_verdicts(self, engine):
        """A skew window is [max(0, ts - eps + 1), ts + eps - 1]: near 0 it
        is clamped, so a shift of the whole log can widen the admissible
        timings and change the verdict set."""
        events = [ev("P1", 0), ev("P2", 1)]
        f = parse_spec("F[3,4) true")
        cfg = MonitorConfig(epsilon=2, engine=engine, solver_command=CMD)
        assert monitor(events, f, cfg).verdicts == {Verdict.BOTTOM}
        for shift in (1, 1000, 1_700_000_000_000):
            assert monitor(_shifted(events, shift), f, cfg).verdicts == {
                Verdict.TOP, Verdict.BOTTOM,
            }, shift

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

    def test_branch_cap_keeps_sorted_prefix(self, tmp_path, capsys, monkeypatch):
        """The first of two segments leaves 8 (formula, last time) branches
        over 5 formulas, two of them `false`. At `--branch-cap 2` the
        second segment starts from the sorted first 2 of them only, the
        result is flagged truncated, and the trim drops the violation:
        the verdicts are {⊤}, a subset of the uncapped {⊤, ⊥}, and the CLI
        exits 2, truncated without a violation."""
        events = [ev("P2", 0), ev("P1", 1), ev("P2", 2, {"p"}), ev("P1", 7, {"p"})]
        phi = parse_spec("G[2,4) p")
        starts, left = {}, {}  # segment index -> branches it starts from, leaves
        real = pipeline._progress_segment

        def recording(sub, live, carry, cfg, seg_index):
            starts[seg_index] = [(str(f), floor) for _, f, floor in live]
            out = real(sub, live, carry, cfg, seg_index)
            left[seg_index] = sorted({(str(f), t) for pairs, _ in out for f, t in pairs})
            return out

        monkeypatch.setattr(pipeline, "_progress_segment", recording)

        def run(cap):
            cfg = MonitorConfig(epsilon=2, segments=2, branch_cap=cap,
                                max_verdicts_per_segment=512)
            return monitor(events, phi, cfg)

        full = run(512)
        assert not full.truncated
        assert len(left[1]) == 8
        capped = run(2)
        assert capped.truncated
        assert starts[2] == left[1][:2]  # segment 1 leaves the same 8 again
        assert capped.segments[0].branches == full.segments[0].branches[:2]
        assert capped.verdicts == {Verdict.TOP} < full.verdicts

        trace = tmp_path / "log.jsonl"
        write_jsonl(events, str(trace))
        spec = tmp_path / "spec.mtl"
        spec.write_text("G[2,4) p\n")
        code = cli_main([
            "--trace", str(trace), "--spec", str(spec), "--epsilon", "2",
            "--segments", "2", "--branch-cap", "2", "--max-verdicts", "512",
        ])
        assert "warning: result truncated" in capsys.readouterr().out
        assert code == 2

    @pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
    def test_engines_share_the_cap_rule(self, tmp_path, capsys, cap):
        """The criterion-1 log has 4 distinct outcomes: both engines flag
        truncation exactly below 4, and each keeps a subset of the uncapped
        outcomes. The smt engine keeps the sorted first `cap` of the first
        `cap + 1` outcomes it finds, the enumerate engine the sorted first
        `cap` of all of them; at caps 3, 4 and 5 the two coincide, so both
        keep the same outcomes and give the same exit code."""
        trace, spec = TestCli._fig3(tmp_path)
        events = ingest(trace)
        phi = parse_spec("a U[0,6) b")
        full = monitor(events, phi, MonitorConfig(epsilon=2, max_verdicts_per_segment=512))
        reports, codes = [], []
        for engine in ("enumerate", "smt"):
            cfg = MonitorConfig(epsilon=2, engine=engine, solver_command=CMD,
                                max_verdicts_per_segment=cap)
            reports.append(monitor(events, phi, cfg))
            codes.append(cli_main([
                "--trace", trace, "--spec", spec, "--epsilon", "2", "--engine", engine,
                "--solver-cmd", CMD, "--max-verdicts", str(cap),
            ]))
        capsys.readouterr()
        for r in reports:
            assert r.verdicts <= full.verdicts
            assert set(r.segments[0].branches) <= set(full.segments[0].branches)
        a, b = reports
        assert a.truncated == b.truncated == (cap < 4)
        if cap < 3:
            return
        assert a.verdicts == b.verdicts
        assert a.segments[0].branches == b.segments[0].branches
        assert codes[0] == codes[1]

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
        for timeout in (float("inf"), float("nan"), 0.0, -1.0):
            with pytest.raises(ConfigError):
                MonitorConfig(epsilon=1, timeout=timeout).validate()

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
        floors and carries occur: each branch's (residual, last time) set
        from every walk equals the rewrite over each linearization."""
        calls = []
        walk = pipeline._walk_cuts

        def recording(sub, branches, carry):
            outs = walk(sub, branches, carry)
            assert len(outs) == len(branches)
            for (phi, floor), out in zip(branches, outs):
                calls.append((sub, phi, floor, dict(carry), out))
            return outs

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
            assert out == oracle_pairs(sub, phi, floor, carry), (str(phi), floor)

    def test_each_rewrite_is_stepped_once_per_run(self, monkeypatch):
        """Skew-random recipe, 18 events at eps 2 in 4 segments (segment 3
        leaves 62 branches): the walks of all branches and segments step no
        (frontier state, formula, gap) twice, and the report equals the
        one the per-linearization rewrite gives."""
        comp = gen_random_computation(2, processes=2, events=18, epsilon=2, max_gap=6)
        phi = parse_spec("G[0,40) (p -> F[0,12) q)")
        cfg = MonitorConfig(
            epsilon=2, segments=4, branch_cap=512, max_verdicts_per_segment=512
        )
        keys = _count_steps(monkeypatch)
        report = monitor(list(comp.events), phi, cfg)
        assert len(report.segments[2].branches) == 62
        assert len(keys) == len(set(keys))

        monkeypatch.setattr(
            pipeline, "_walk_cuts",
            lambda sub, branches, carry: [
                oracle_pairs(sub, phi, floor, carry) for phi, floor in branches
            ],
        )
        ref = monitor(list(comp.events), phi, cfg)
        assert report.verdicts == ref.verdicts
        assert report.truncated == ref.truncated
        assert [s.branches for s in report.segments] == [s.branches for s in ref.segments]

    def test_memo_keys_hash_by_structure(self):
        a = State(frozenset({"p"}), {"to_B": 3, "from_A": 1})
        b = State(frozenset({"p"}), {"from_A": 1, "to_B": 3})
        assert list(a.variables) != list(b.variables)
        assert a == b and hash(a) == hash(b)
        parsed = parse_spec("G[0,40) (p -> F[0,12) q) & !(sum(to:B) >= sum(from:A) + 2)")
        built = mk_and(
            mk_globally(
                Interval(0, 40),
                mk_implies(Atom("p"), mk_eventually(Interval(0, 12), Atom("q"))),
            ),
            mk_not(SumAtom("B", "A", 2)),
        )
        assert parsed is not built
        assert parsed == built and hash(parsed) == hash(built)
        assert {(a, parsed, 3): 1}[(b, built, 3)] == 1

    def test_memo_keys_are_immutable(self):
        """States key the process-wide memo, so their variables cannot be
        changed after construction; they still read like a dict."""
        totals = {"to_B": 3, "from_A": 1}
        st_ = State(frozenset({"p"}), totals)
        with pytest.raises(TypeError):
            st_.variables["to_B"] = 9
        totals["to_B"] = 9  # the state holds its own copy
        assert st_.variables == {"to_B": 3, "from_A": 1}
        assert st_ == State(frozenset({"p"}), {"from_A": 1, "to_B": 3})
        assert hash(st_) == hash((frozenset({"p"}), (("from_A", 1), ("to_B", 3))))
        assert event_to_json(Event("P1", 4, st_)) == {
            "proc": "P1", "ts": 4, "kind": "local", "msg": None,
            "props": ["p"], "vars": {"from_A": 1, "to_B": 3},
        }

    def test_verdict_cap_keeps_sorted_prefix(self):
        events = [ev("P1", 1, {"a"}), ev("P1", 4), ev("P2", 2, {"a"}), ev("P2", 5, {"b"})]
        phi = parse_spec("a U[0,6) b")
        full = monitor(events, phi, MonitorConfig(epsilon=2, max_verdicts_per_segment=512))
        capped = monitor(events, phi, MonitorConfig(epsilon=2, max_verdicts_per_segment=2))
        assert not full.truncated and capped.truncated
        assert capped.segments[0].branches == full.segments[0].branches[:2]

    def test_budget_counts_lattice_states(self, monkeypatch):
        events = [ev("P1", 1, {"a"}), ev("P1", 4), ev("P2", 2, {"a"}), ev("P2", 5, {"b"})]
        phi = parse_spec("a U[0,6) b")
        monkeypatch.setattr(pipeline, "STATE_BUDGET", 3)
        with pytest.raises(BudgetExceeded):
            monitor(events, phi, MonitorConfig(epsilon=2))

    def test_budget_counts_states_per_branch(self, monkeypatch):
        """On a one-process chain at eps 1 each branch visits one state per
        layer, 4 in all, and the two branches never share a state: the
        walk visits 8 states, 4 for each branch."""
        sub = build_computation([ev("P1", t) for t in (1, 2, 3, 4)], 1)
        branches = [(pipeline._normalized(parse_spec(s)), floor)
                    for s, floor in (("F[0,50) q", None), ("F[0,60) r", 0))]
        monkeypatch.setattr(pipeline, "STATE_BUDGET", 4)
        outs = pipeline._walk_cuts(sub, branches, {})
        assert outs == [oracle_pairs(sub, phi, floor) for phi, floor in branches]
        monkeypatch.setattr(pipeline, "STATE_BUDGET", 3)
        for walked in (branches[:1], branches[1:], branches):
            with pytest.raises(BudgetExceeded):
                pipeline._walk_cuts(sub, walked, {})

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32))
    def test_shared_walk_equals_oracle_per_branch(self, seed):
        """2-4 branches with distinct formulas and floors, and a carry:
        each branch's outcome set is the rewrite over every linearization
        of the segment."""
        rng = random.Random(seed)
        sub = bounded_computation(rng, max_events=5, epsilons=(1, 2), lin_cap=150)
        carry = {p: State(frozenset(rng.sample(("p", "q", "r"), 1))) for p in ("P1", "P9")}
        k = rng.randrange(2, 5)
        start = min(e.local_time for e in sub.events)
        floors = rng.sample([None] + list(range(start + sub.epsilon + 2)), k)
        formulas = set()
        while len(formulas) < k:
            formulas.add(pipeline._normalized(random_formula(rng, 2, constants=False)))
        branches = list(zip(sorted(formulas, key=str), floors))
        outs = pipeline._walk_cuts(sub, branches, carry)
        assert outs == [oracle_pairs(sub, phi, floor, carry) for phi, floor in branches]


def _count_steps(monkeypatch) -> list:
    """Record the key of every outermost `progression.step` call; `step`
    recurses through its module name, so inner calls are not counted."""
    keys = []
    depth = [0]
    real_step = progression.step

    def counting(st, f, gap):
        if not depth[0]:
            keys.append((st, f, gap))
        depth[0] += 1
        try:
            return real_step(st, f, gap)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(progression, "step", counting)
    return keys


def _shifted(events, shift: int) -> list:
    """The log with shift added to every timestamp."""
    return [Event(e.process, e.local_time + shift, e.payload) for e in events]


def _untimed(report: dict) -> dict:
    """A JSON report without the per-segment wall times."""
    for seg in report["segments"]:
        del seg["ms"]
    return report


class TestProcessCaches:
    """The rewrite memo, the spec parse and the input normalization are
    kept per process; counted without timing."""

    def test_each_key_is_stepped_once_per_process(self, tmp_path, capsys, monkeypatch):
        """16 swap-grid logs x 1 spec through the in-process CLI: the logs
        share one memo, so `step` runs once per distinct key over all
        calls, and every report equals the one of a cold memo."""
        params = casegen.ProtocolParams(delta=10, epsilon=1)
        spec = tmp_path / "alice_hedged_2p.mtl"
        spec.write_text(str(casegen.spec_library(10)["alice_hedged_2p"]) + "\n")
        argvs = []
        for vec in casegen.enumerate_two_party_executions()[::64]:
            path = str(tmp_path / f"{vec}.jsonl")
            write_jsonl(casegen.gen_two_party_log(vec, params), path)
            argvs.append(["--trace", path, "--spec", str(spec), "--epsilon", "1",
                          "--format", "json"])
        assert len(argvs) == 16

        def reports(clear_each):
            out = []
            for argv in argvs:
                if clear_each:
                    progression._rewrites.clear()
                code = cli_main(argv)
                out.append((code, _untimed(json.loads(capsys.readouterr().out))))
            return out

        keys = _count_steps(monkeypatch)
        cold = reports(clear_each=True)
        cold_calls, keys[:] = len(keys), []
        progression._rewrites.clear()
        shared = reports(clear_each=False)
        assert shared == cold
        assert len(keys) == len(set(keys))
        assert 0 < len(keys) < cold_calls

    def test_memo_is_dropped_above_the_limit(self, monkeypatch):
        comp = gen_random_computation(2, processes=2, events=12, epsilon=2, max_gap=6)
        phi = parse_spec("G[0,40) (p -> F[0,12) q)")
        cfg = MonitorConfig(epsilon=2, segments=3)
        progression._rewrites.clear()
        kept = _untimed(monitor(list(comp.events), phi, cfg).to_json())
        assert 1 < len(progression._rewrites) <= progression.REWRITE_LIMIT
        # equal rewrites and frontier states are kept as one object each
        for part in ((st for st, _, _ in progression._rewrites), progression._rewrites.values()):
            objs = list(part)
            assert len({id(x) for x in objs}) == len(set(objs))
        monkeypatch.setattr(progression, "REWRITE_LIMIT", 1)
        progression._rewrites.clear()
        dropped = _untimed(monitor(list(comp.events), phi, cfg).to_json())
        assert progression._rewrites == {} and progression._terms == {}
        assert dropped == kept


class TestCli:
    @staticmethod
    def _fig3(tmp_path):
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
        for blank in (" ", "'unclosed"):
            code = cli_main([
                "--trace", trace, "--spec", spec, "--epsilon", "2", "--engine", "smt",
                "--solver-cmd", blank,
            ])
            err = capsys.readouterr().err
            assert code == 64, blank
            assert err.startswith("mtlmon: usage error: ") and len(err.strip().splitlines()) == 1

    def test_successive_calls_are_independent(self, tmp_path, capsys):
        """The parser is built once per process; each call still sees only
        its own --trace list and --format."""
        trace, spec = self._fig3(tmp_path)
        argv = ["--trace", trace, "--spec", spec, "--epsilon", "2", "--format", "json"]
        assert cli_main(argv) == 1
        first = _untimed(json.loads(capsys.readouterr().out))
        assert first["verdicts"] == ["false", "true"]
        # b holds first on every ordering, and the fig3 events stay out
        p1, p2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
        p1.write_text(json.dumps({"proc": "P1", "ts": 1, "props": ["b"]}) + "\n")
        p2.write_text(json.dumps({"proc": "P2", "ts": 5}) + "\n")
        code = cli_main(["--trace", str(p1), "--trace", str(p2), "--spec", spec,
                         "--epsilon", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("verdicts: ⊤\n") and "segment 1 (local times 0..5, 2 events" in out
        assert cli_main(["--trace", trace, "--spec", spec]) == 64
        assert "--epsilon" in capsys.readouterr().err
        assert cli_main(argv) == 1
        assert _untimed(json.loads(capsys.readouterr().out)) == first

    def test_bad_flag_is_usage_error(self, tmp_path, capsys):
        assert cli_main(["monitor", "--no-such-flag"]) == 64
        capsys.readouterr()
        trace, spec = self._fig3(tmp_path)
        for timeout in ("inf", "nan", "0", "-1"):
            code = cli_main([
                "--trace", trace, "--spec", spec, "--epsilon", "2",
                "--engine", "smt", "--solver-cmd", CMD, "--timeout", timeout,
            ])
            err = capsys.readouterr().err
            assert code == 64, timeout
            assert err.startswith("mtlmon: usage error: ") and "Traceback" not in err

    def test_unreadable_file_is_data_error(self, tmp_path, capsys):
        spec = tmp_path / "s.mtl"
        spec.write_text("true")
        code = cli_main([
            "--trace", str(tmp_path / "missing.jsonl"), "--spec", str(spec),
            "--epsilon", "1",
        ])
        capsys.readouterr()
        assert code == 65

    def test_bug_exits_70_with_traceback(self, tmp_path, capsys, monkeypatch):
        """An exception outside MonitorError is a bug, not a violation."""
        trace, spec = self._fig3(tmp_path)

        def crash(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "monitor", crash)
        code = cli_main(["--trace", trace, "--spec", spec, "--epsilon", "2"])
        out, err = capsys.readouterr()
        assert code == 70
        assert "Traceback" in err and "RuntimeError: boom" in err
        assert out == ""

    def test_gen_failures_exit_with_their_class_code(self, tmp_path, capsys, monkeypatch):
        """`gen` reports a MonitorError in one line with its class's code,
        and a bug with its traceback and 70, as `monitor` does."""
        out = str(tmp_path / "specs")
        code = cli_main(["gen", "specs", "--delta", "-5", "--out", out])
        err = capsys.readouterr().err
        assert code == 65
        assert err.startswith("mtlmon: spec error: ") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

        def crash(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(casegen, "spec_library", crash)
        code = cli_main(["gen", "specs", "--out", out])
        err = capsys.readouterr().err
        assert code == 70
        assert "Traceback" in err and "RuntimeError: boom" in err

    def test_gen_refuses_a_delta_too_small(self, tmp_path, capsys):
        """At delta 2 this execution puts two events on 'ban' at time 9,
        a log `monitor` would refuse; `gen` exits 65 and writes nothing.
        The grid holds such executions too, and writes none of its logs."""
        out = tmp_path / "x.jsonl"
        code = cli_main([
            "gen", "two-party", "--vector", "101010111010", "--delta", "2",
            "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 65
        assert err == (
            "mtlmon: delta too small: times on chain 'ban' must be strictly"
            " increasing (9 after 9)\n"
        )
        assert not out.exists()

        grid = tmp_path / "grid"
        code = cli_main(["gen", "grid", "--delta", "2", "--out", str(grid)])
        err = capsys.readouterr().err
        assert code == 65
        assert err.startswith("mtlmon: delta too small: ")
        assert len(err.splitlines()) == 1
        assert not grid.exists()

    def test_each_log_generator_writes_logs_monitor_accepts(self, tmp_path, capsys):
        """One successful run of each log generator; `monitor` runs every
        log written, against the protocol's shipped liveness spec, and
        exits 0, 1 or 2."""
        specs = importlib.resources.files("mtlmon") / "specs"
        runs = [  # (generator, its flags, spec, epsilon)
            ("two-party", ["--vector", "101010101010"], "liveness_2p", 1),
            ("grid", [], "liveness_2p", 1),
            ("three-party", [], "liveness_3p", 1),
            ("auction", [], "liveness_auction", 1),
            ("random", ["--seed", "7"], "liveness_2p", 2),
        ]
        codes = {}
        for generator, flags, spec, epsilon in runs:
            out = tmp_path / generator
            code = cli_main(["gen", generator, *flags, "--out", str(out)])
            capsys.readouterr()
            assert code == 0, generator
            logs = sorted(out.iterdir()) if out.is_dir() else [out]
            assert len(logs) == (1024 if generator == "grid" else 1), generator
            codes[generator] = set()
            for log in logs:
                codes[generator].add(cli_main([
                    "--trace", str(log), "--spec", str(specs / f"{spec}.mtl"),
                    "--epsilon", str(epsilon),
                ]))
                stdout, err = capsys.readouterr()
                assert stdout.startswith("verdicts: ") and not err, (generator, log.name)
            assert codes[generator] <= {0, 1, 2}, generator
        # the conforming swap is live; the grid holds violations as well
        assert codes["two-party"] == {0}
        assert codes["grid"] == {0, 1}

    def test_shipped_specs_match_gen(self, tmp_path, capsys):
        """The package's spec files are what `gen specs --delta 500` writes."""
        code = cli_main(["gen", "specs", "--delta", "500", "--out", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        shipped = importlib.resources.files("mtlmon") / "specs"
        names = sorted(p.name for p in shipped.iterdir() if p.name.endswith(".mtl"))
        assert names == sorted(os.listdir(tmp_path))
        assert len(names) == 12
        for name in names:
            assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name

    def test_budget_exhaustion_exits_70(self, tmp_path, capsys, monkeypatch):
        trace, spec = self._fig3(tmp_path)
        monkeypatch.setattr(pipeline, "STATE_BUDGET", 3)
        code = cli_main(["--trace", trace, "--spec", spec, "--epsilon", "2"])
        err = capsys.readouterr().err
        assert code == 70
        assert err.startswith("mtlmon: ") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "which, content",
        [
            ("trace", b"[1, 2]\n"),
            ("trace", b"null\n"),
            ("trace", b'{"proc": "P1", "ts": true}\n'),
            ("trace", b'{"proc": "P1", "ts": 1, "props": ["\xff"]}\n'),
            ("trace", b'{"proc": null, "ts": 1}\n'),
            ("trace", b'{"proc": [1], "ts": 1}\n'),
            ("spec", b"a U[0,6) \xff"),
            pytest.param("spec", b"(" * 3000 + b"p" + b")" * 3000, id="spec-parentheses"),
            pytest.param("spec", b"!" * 3000 + b"p", id="spec-negations"),
            pytest.param("spec", b" & ".join([b"p"] * 1500), id="spec-conjuncts"),
            # more digits than Python converts to an int
            pytest.param("spec", b"F[0," + b"9" * 5000 + b") p", id="spec-huge-bound"),
            pytest.param("trace", b"", id="trace-empty"),
        ],
    )
    def test_malformed_input_exits_65(self, tmp_path, capsys, which, content):
        files = dict(zip(("trace", "spec"), self._fig3(tmp_path)))
        bad = tmp_path / "bad"
        bad.write_bytes(content)
        files[which] = str(bad)
        code = cli_main(["--trace", files["trace"], "--spec", files["spec"], "--epsilon", "2"])
        err = capsys.readouterr().err
        assert code == 65
        assert err.startswith("mtlmon: ") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_length_below_last_event_exits_65(self, tmp_path, capsys):
        trace, spec = self._fig3(tmp_path)
        code = cli_main(["--trace", trace, "--spec", spec, "--epsilon", "2", "--length", "1"])
        err = capsys.readouterr().err
        assert code == 65
        assert err == "mtlmon: length 1 below the last event time 5\n"

    def test_long_window_engines_agree(self, tmp_path, capsys):
        """A window far longer than the log: the solver engine bounds the
        window's shift by the segment's span, not by the window's end."""
        trace = tmp_path / "two.jsonl"
        trace.write_text(
            json.dumps({"proc": "P1", "ts": 1}) + "\n"
            + json.dumps({"proc": "P1", "ts": 3, "props": ["p"]}) + "\n"
        )
        spec = tmp_path / "long.mtl"
        spec.write_text("F[0,200000000) p\n")
        argv = ["--trace", str(trace), "--spec", str(spec), "--epsilon", "1", "--format", "json"]
        reports = []
        for engine in (["--engine", "enumerate"], ["--engine", "smt", "--solver-cmd", CMD]):
            assert cli_main(argv + engine) == 0
            reports.append(_untimed(json.loads(capsys.readouterr().out)))
        assert reports[0] == reports[1]
        assert reports[0]["verdicts"] == ["true"]

    def test_variable_budget_exits_70(self, tmp_path, capsys, monkeypatch):
        trace, spec = self._fig3(tmp_path)
        monkeypatch.setattr(smt, "VAR_BUDGET", 10)
        code = cli_main([
            "--trace", trace, "--spec", spec, "--epsilon", "2",
            "--engine", "smt", "--solver-cmd", CMD,
        ])
        err = capsys.readouterr().err
        assert code == 70
        assert err.startswith("mtlmon: budget exceeded: ") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "solver", ["sleep 5", "/nonexistent/mtlmon-solver"], ids=["timeout", "missing"]
    )
    def test_solver_failure_exits_69(self, tmp_path, capsys, solver):
        trace, spec = self._fig3(tmp_path)
        code = cli_main([
            "--trace", trace, "--spec", spec, "--epsilon", "2",
            "--engine", "smt", "--solver-cmd", solver, "--timeout", "0.2",
        ])
        err = capsys.readouterr().err
        assert code == 69
        assert err.startswith("mtlmon: solver error: ") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_huge_timeout_is_accepted(self, tmp_path, capsys):
        trace, spec = self._fig3(tmp_path)
        code = cli_main([
            "--trace", trace, "--spec", spec, "--epsilon", "2",
            "--engine", "smt", "--solver-cmd", CMD, "--timeout", "1e300",
        ])
        assert code == 1 and capsys.readouterr().err == ""

    def test_solver_timeout_bounds_writing(self, tmp_path, capsys):
        """A solver that never reads cannot stall the write of a problem
        larger than a pipe buffer past the timeout."""
        trace = tmp_path / "wide.jsonl"
        trace.write_text("".join(
            json.dumps({"proc": p, "ts": 3 * i, "props": ["a" if i % 2 else "b"]}) + "\n"
            for p in ("P1", "P2") for i in range(8)
        ))
        spec = tmp_path / "until.mtl"
        spec.write_text("a U[0,6) b\n")
        comp = build_computation(ingest([str(trace)]), 2)
        assert len(smt.encode(comp, parse_spec("a U[0,6) b")).text) > 64 * 1024
        t0 = time.monotonic()
        code = cli_main([
            "--trace", str(trace), "--spec", str(spec), "--epsilon", "2",
            "--engine", "smt", "--solver-cmd", "sleep 5", "--timeout", "0.2",
        ])
        elapsed = time.monotonic() - t0
        err = capsys.readouterr().err
        assert code == 69
        assert err.startswith("mtlmon: solver error: ") and len(err.strip().splitlines()) == 1
        assert elapsed < 2.5

    @pytest.mark.parametrize("where", ["under-a-file", "onto-a-directory"])
    def test_unwritable_emit_smt_exits_73(self, tmp_path, capsys, where):
        trace, spec = self._fig3(tmp_path)
        blocker = tmp_path / "blocker"
        if where == "under-a-file":
            blocker.write_text("")
            dump = blocker / "x"
        else:  # the first query file's name is taken by a directory
            (blocker / "seg1_b0_q0.smt2").mkdir(parents=True)
            dump = blocker
        code = cli_main([
            "--trace", trace, "--spec", spec, "--epsilon", "2",
            "--engine", "smt", "--solver-cmd", CMD, "--emit-smt", str(dump),
        ])
        err = capsys.readouterr().err
        assert code == 73
        assert err.startswith("mtlmon: cannot write --emit-smt files: ")
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

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


# Trace lines: well-formed events, objects shaped like events whose fields
# may be arbitrary, arbitrary JSON values, and raw bytes.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
FIELDS = {
    "proc": st.sampled_from(["P1", "P2"]),
    "ts": st.integers(0, 9),
    "kind": st.sampled_from(["local", "send", "recv"]),
    "msg": st.sampled_from(["m1", "m2"]),
    "props": st.lists(st.sampled_from(["p", "q"]), max_size=2),
    "vars": st.dictionaries(st.sampled_from(["to_a", "from_a"]), st.integers(-5, 5), max_size=2),
}
REQUIRED = ("proc", "ts")


def _event_line(field):
    return st.fixed_dictionaries(
        {k: field(v) for k, v in FIELDS.items() if k in REQUIRED},
        optional={k: field(v) for k, v in FIELDS.items() if k not in REQUIRED},
    )


GOOD_LINE = _event_line(lambda v: v).filter(lambda d: d.get("kind", "local") == "local")
LINE = st.one_of(
    *[st.builds(lambda v: json.dumps(v).encode(), s)
      for s in (GOOD_LINE, GOOD_LINE, GOOD_LINE, _event_line(lambda v: v | JSON), JSON)],
    st.binary(max_size=8),
)
TRACE_FILE = st.lists(LINE, max_size=6).map(b"\n".join)
GOOD_SPEC = st.sampled_from([b"p U[0,3) q", b"G[0,4) (p -> F[0,2) q)", b"true"])
SPEC_FILE = st.one_of(GOOD_SPEC, GOOD_SPEC, st.binary(max_size=12))


@contextlib.contextmanager
def _files(*contents):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for n, content in enumerate(contents):
            paths.append(os.path.join(tmp, f"f{n}"))
            with open(paths[-1], "wb") as fh:
                fh.write(content)
        yield paths


class TestMalformedInput:
    @settings(max_examples=200, deadline=None)
    @given(TRACE_FILE)
    def test_ingest_returns_events_or_raises_ingest_error(self, content):
        with _files(content) as (trace,):
            try:
                events = ingest(trace)
            except IngestError:
                return
        assert all(isinstance(e, pipeline.Event) for e in events)

    @settings(max_examples=150, deadline=None)
    @given(TRACE_FILE, SPEC_FILE, st.integers(1, 2), st.sampled_from(["enumerate", "smt"]))
    def test_cli_never_crashes_nor_claims_a_false_violation(self, trace, spec, eps, engine):
        out, err = io.StringIO(), io.StringIO()
        with _files(trace, spec) as (trace_path, spec_path):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main([
                    "--trace", trace_path, "--spec", spec_path, "--epsilon", str(eps),
                    "--format", "json", "--engine", engine, "--solver-cmd", CMD,
                ])
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert "false" in json.loads(out.getvalue())["verdicts"]
