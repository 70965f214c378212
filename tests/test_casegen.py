import random

import pytest

from mtlmon.casegen import (
    ExecutionVector,
    ProtocolParams,
    conforming_two_party_vector,
    enumerate_two_party_executions,
    gen_auction_log,
    gen_random_computation,
    gen_three_party_log,
    gen_two_party_log,
    spec_library,
)
from mtlmon.computation import build_computation
from mtlmon.parser import format_formula, parse_spec
from mtlmon.pipeline import MonitorConfig, monitor
from mtlmon.semantics import Verdict


class TestExecutionGrid:
    def test_exactly_1024_distinct_vectors(self):
        vecs = enumerate_two_party_executions()
        assert len(vecs) == 1024
        assert len(set(vecs)) == 1024

    def test_conforming_vector_present(self):
        assert conforming_two_party_vector() in enumerate_two_party_executions()
        assert str(conforming_two_party_vector()) == "101010101010"

    def test_chain_ordering_enforced(self):
        # apricot-chain step 3 without step 2 is impossible
        bits = [0] * 12
        bits[2 * 2] = 1  # step 3 attempted, step 2 skipped
        with pytest.raises(ValueError):
            ExecutionVector(tuple(bits))
        for vec in enumerate_two_party_executions():
            if vec.attempted(3):
                assert vec.attempted(2)
            if vec.attempted(5):
                assert vec.attempted(4) and vec.attempted(1)

    def test_grid_logs_build_valid_computations(self, tmp_path):
        from mtlmon.cli import write_jsonl
        from mtlmon.pipeline import ingest

        params = ProtocolParams(delta=10)
        rng = random.Random(1)
        vecs = enumerate_two_party_executions()
        path = tmp_path / "log.jsonl"
        for vec in rng.sample(vecs, 50):
            log = gen_two_party_log(vec, params)
            comp = build_computation(log, 2)  # raises on cycles
            assert len(comp) == len(log)
            write_jsonl(log, str(path))
            assert ingest(str(path)) == log

    def test_grid_at_delta_3_builds_computations(self):
        params = ProtocolParams(delta=3)
        for vec in enumerate_two_party_executions():
            log = gen_two_party_log(vec, params)
            assert len(build_computation(log, 2)) == len(log)

    def test_delta_too_small_is_refused(self):
        """Two events on one chain at one time would make a log that
        `ingest` refuses; the generators raise instead of writing it."""
        late = ExecutionVector.from_string("101010111010")
        with pytest.raises(ValueError, match="'ban' must be strictly increasing"):
            gen_two_party_log(late, ProtocolParams(delta=2))
        with pytest.raises(ValueError, match="'coin'"):
            gen_auction_log(None, ProtocolParams(delta=2))
        with pytest.raises(ValueError, match="strictly increasing"):
            gen_three_party_log(None, ProtocolParams(delta=1))


class TestTwoPartyLogs:
    def test_conforming_log_is_live_and_safe(self):
        log = gen_two_party_log(conforming_two_party_vector(), ProtocolParams(delta=10))
        lib = spec_library(delta=10)
        cfg = MonitorConfig(epsilon=1, segments=1)
        assert monitor(log, lib["liveness_2p"], cfg).verdicts == {Verdict.TOP}
        assert monitor(log, lib["alice_safety_2p"], cfg).verdicts == {Verdict.TOP}

    def test_skipped_step_two_refunds_alice(self):
        vec = ExecutionVector.from_string("100000000000")
        log = gen_two_party_log(vec, ProtocolParams(delta=10))
        props = {p for e in log for p in e.payload.props}
        assert "apr.premium_deposited_bob" not in props
        assert "ban.premium_refunded_alice" in props
        lib = spec_library(delta=10)
        cfg = MonitorConfig(epsilon=1, segments=1)
        # the conformance guard is vacuous, so alice stays safe
        assert monitor(log, lib["alice_safety_2p"], cfg).verdicts == {Verdict.TOP}
        assert monitor(log, lib["liveness_2p"], cfg).verdicts == {Verdict.BOTTOM}

    def test_late_first_step_misses_its_deadline(self):
        vec = ExecutionVector.from_string("111010101010")
        log = gen_two_party_log(vec, ProtocolParams(delta=10))
        step1 = [e for e in log if "ban.premium_deposited_alice" in e.payload.props]
        assert [e.local_time for e in step1] == [11]
        cfg = MonitorConfig(epsilon=1, segments=1)
        deadline = parse_spec("F[0,10) ban.premium_deposited_alice")
        assert monitor(log, deadline, cfg).verdicts == {Verdict.BOTTOM}

    def test_payoff_bookkeeping_totals(self):
        log = gen_two_party_log(conforming_two_party_vector(), ProtocolParams(delta=10))
        final = {}
        for e in log:
            for k, v in e.payload.variables.items():
                final[(e.process, k)] = v
        # alice pays premium 2 + asset 100, receives asset 100 + premium 2
        assert final[("ban", "from_alice")] == 2
        assert final[("apr", "from_alice")] == 100
        assert final[("ban", "to_alice")] == 102


class TestOtherProtocols:
    def test_three_party_conforming_shape(self):
        log = gen_three_party_log(params=ProtocolParams(delta=10))
        step_events = [e for e in log if 0 < e.local_time < 120]
        assert len(step_events) >= 12
        lib = spec_library(delta=10)
        cfg = MonitorConfig(epsilon=1, segments=1)
        assert monitor(log, lib["liveness_3p"], cfg).verdicts == {Verdict.TOP}
        assert monitor(log, lib["alice_safety_3p"], cfg).verdicts == {Verdict.TOP}

    def test_three_party_ordering_enforced(self):
        with pytest.raises(ValueError):
            gen_three_party_log([0] + [1] * 11)

    def test_auction_conforming_is_live(self):
        log = gen_auction_log(params=ProtocolParams(delta=10))
        props = {p for e in log for p in e.payload.props}
        assert {"coin.bid_bob", "coin.declaration_alice_sb", "tckt.redeemTicket_any"} <= props
        lib = spec_library(delta=10)
        cfg = MonitorConfig(epsilon=1, segments=1)
        assert monitor(log, lib["liveness_auction"], cfg).verdicts == {Verdict.TOP}
        assert monitor(log, lib["bob_safety_auction"], cfg).verdicts == {Verdict.TOP}

    def test_auction_zero_vector_is_setup_only(self):
        log = gen_auction_log((0, 0, 0))
        assert all(e.local_time == 0 for e in log)
        assert len(log) == 2


class TestSpecLibrary:
    def test_names_unique_and_round_trip(self):
        lib = spec_library(delta=500)
        assert len(lib) == len(set(lib))
        for name, formula in lib.items():
            assert parse_spec(format_formula(formula)) == formula, name

    def test_liveness_first_conjunct(self):
        from mtlmon.formula import And, Eventually, Interval, Atom

        lib = spec_library(delta=500)
        first = lib["liveness_2p"]
        while isinstance(first, And):
            first = first.args[0]
        assert first == Eventually(Interval(0, 500), Atom("ban.premium_deposited_alice"))

    def test_safety_is_guarded_sum(self):
        from mtlmon.formula import Implies, SumAtom

        lib = spec_library(delta=500)
        safety = lib["alice_safety_2p"]
        assert isinstance(safety, Implies)
        assert safety.right == SumAtom("alice", "alice", 0)
        assert safety.left == lib["alice_conform_2p"]


class TestRandomComputations:
    def test_seed_determinism(self):
        a = gen_random_computation(99, processes=3, events=10, epsilon=2)
        b = gen_random_computation(99, processes=3, events=10, epsilon=2)
        assert a.events == b.events and a.hb == b.hb

    def test_single_event(self):
        c = gen_random_computation(5, processes=1, events=1, epsilon=1)
        assert len(c) == 1

    def test_seed_sweep_builds_cleanly(self):
        for seed in range(200):
            c = gen_random_computation(
                seed,
                processes=1 + seed % 4,
                events=4 + seed % 9,
                epsilon=1 + seed % 3,
                message_rate=0.2 if seed % 5 == 0 else 0.0,
            )
            assert len(c) >= 4
