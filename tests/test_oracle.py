import ast
import math
import random
from pathlib import Path

import pytest

import mtlmon
from mtlmon.computation import Event, build_computation
from mtlmon.formula import TRUE, Not
from mtlmon.oracle import (
    OracleBudgetError,
    enumerate_linearizations,
    oracle_progress,
)
from mtlmon.parser import parse_spec
from mtlmon.semantics import State, Verdict, merge_frontier
from reference import is_consistent_cut_indices, oracle_verdicts
from support import bounded_computation, random_formula


def ev(proc, t, props=()):
    return Event(proc, t, State(frozenset(props)))


def fig3_computation():
    return build_computation(
        [ev("P1", 1, {"a"}), ev("P1", 4), ev("P2", 2, {"a"}), ev("P2", 5, {"b"})], 2
    )


class TestEnumeration:
    def test_contains_both_orderings_of_the_tail(self):
        c = fig3_computation()
        lins = list(enumerate_linearizations(c))
        def shape(lin):
            return tuple(
                (tuple(sorted(s.props)), t) for s, t in zip(lin.trace.states, lin.times)
            )
        shapes = {shape(l) for l in lins}
        # states merge the latest payload of every process in the cut, so
        # P2's 'a' persists until its own next event replaces it
        b_first = ((("a",), 1), (("a",), 2), (("a", "b"), 4), (("b",), 5))
        na_first = ((("a",), 1), (("a",), 2), (("a",), 4), (("b",), 5))
        assert b_first in shapes
        assert na_first in shapes
        # both relative orders of the concurrent tail events are present
        orders = {tuple(e.local_time for e in lin.events) for lin in lins}
        assert (1, 2, 5, 4) in orders and (1, 2, 4, 5) in orders

    def test_single_process_is_rigid(self):
        c = build_computation([ev("P", 3), ev("P", 5)], 1)
        lins = list(enumerate_linearizations(c))
        assert len(lins) == 1
        assert lins[0].times == (3, 5)

    def test_two_concurrent_events_count(self):
        c = build_computation([ev("P1", 5, {"x"}), ev("P2", 5, {"y"})], 2)
        lins = list(enumerate_linearizations(c))
        # 2 orders, times drawn from {4,5,6}^2 with the later >= the earlier
        assert len(lins) == 2 * 6
        assert len({(l.events, l.times) for l in lins}) == len(lins)

    def test_factorial_growth_for_mutually_concurrent_events(self):
        for k in range(1, 5):
            events = [ev(f"P{i}", 5) for i in range(k)]
            c = build_computation(events, 1)
            count = sum(1 for _ in enumerate_linearizations(c))
            assert count == math.factorial(k)

    def test_every_prefix_is_a_consistent_cut_with_monotone_times(self):
        rng = random.Random(31)
        for _ in range(10):
            c = bounded_computation(rng, max_events=7)
            index = {e: i for i, e in enumerate(c.events)}
            for lin in enumerate_linearizations(c):
                assert all(a <= b for a, b in zip(lin.times, lin.times[1:]))
                cut = set()
                for e in lin.events:
                    cut.add(index[e])
                    assert is_consistent_cut_indices(c, cut)

    def test_budget_overrun_raises(self):
        events = [ev(f"P{i}", 5) for i in range(5)]
        c = build_computation(events, 1)
        with pytest.raises(OracleBudgetError):
            list(enumerate_linearizations(c, budget=10))

    def test_floor_bounds_first_time(self):
        c = build_computation([ev("P1", 3)], 3)
        times = {lin.times[0] for lin in enumerate_linearizations(c)}
        assert times == {1, 2, 3, 4, 5}
        floored = {lin.times[0] for lin in enumerate_linearizations(c, floor=4)}
        assert floored == {4, 5}

    def test_carry_merges_into_states(self):
        c = build_computation([ev("P2", 4, {"y"})], 1)
        carry = {"P1": State(frozenset({"x"}), {"to_a": 5})}
        (lin,) = enumerate_linearizations(c, carry=carry)
        assert lin.trace.states[0].props == {"x", "y"}
        assert lin.trace.states[0].variables == {"to_a": 5}


class TestMergeFrontier:
    def test_props_union_and_variable_sums(self):
        latest = {
            "apr": State(frozenset({"a"}), {"to_alice": 2, "from_bob": 1}),
            "ban": State(frozenset({"b"}), {"to_alice": 100}),
        }
        merged = merge_frontier(latest)
        assert merged.props == {"a", "b"}
        assert merged.variables == {"to_alice": 102, "from_bob": 1}


class TestVerdicts:
    def test_both_verdicts_for_the_skewed_until(self):
        c = fig3_computation()
        assert oracle_verdicts(c, parse_spec("a U[0,6) b")) == {
            Verdict.TOP,
            Verdict.BOTTOM,
        }

    def test_constant_formula(self):
        c = fig3_computation()
        assert oracle_verdicts(c, TRUE) == {Verdict.TOP}

    def test_full_swap_computation_splits(self):
        events = [
            ev("apr", 1), ev("apr", 3), ev("apr", 5), ev("apr", 7, {"apr_redeem_bob"}),
            ev("ban", 1), ev("ban", 4), ev("ban", 6), ev("ban", 7, {"ban_redeem_alice"}),
        ]
        c = build_computation(events, 2)
        phi = parse_spec("!apr_redeem_bob U[0,8) ban_redeem_alice")
        assert oracle_verdicts(c, phi) == {Verdict.TOP, Verdict.BOTTOM}

    def test_negation_flips_the_set(self):
        rng = random.Random(41)
        for _ in range(15):
            c = bounded_computation(rng, max_events=6)
            f = random_formula(rng, 2)
            vs = oracle_verdicts(c, f)
            assert oracle_verdicts(c, Not(f)) == {~v for v in vs}

    def test_deterministic(self):
        rng = random.Random(42)
        c = bounded_computation(rng, max_events=6)
        f = random_formula(rng, 2)
        assert oracle_verdicts(c, f) == oracle_verdicts(c, f)


class TestProgressSets:
    def test_swap_prefix_produces_both_shifted_windows(self):
        events = [
            ev("apr", 1), ev("apr", 3), ev("ban", 1), ev("ban", 4),
        ]
        c = build_computation(events, 2)
        out = oracle_progress(c, parse_spec("!apr_redeem_bob U[0,8) ban_redeem_alice"))
        assert parse_spec("!apr_redeem_bob U[0,4) ban_redeem_alice") in out
        assert parse_spec("!apr_redeem_bob U[0,3) ban_redeem_alice") in out

    def test_vacuous_globally(self):
        c = build_computation([ev("P1", 2)], 2)
        out = oracle_progress(c, parse_spec("G true"))
        assert out == {TRUE}

    def test_immediate_witness_everywhere(self):
        c = build_computation([ev("P1", 0, {"q"})], 2)
        assert oracle_progress(c, parse_spec("p U[0,5) q")) == {TRUE}


# the names perfbench/spans.py wraps on the modules that import them; no
# other module reaches the oracle
ORACLE_IMPORTS = {"pipeline": {"enumerate_linearizations", "progress"}, "smt": {"progress"}}
# the reference semantics, which lives with the tests
REFERENCE = {"eval_finite", "_eval", "trace_of", "in_interval", "oracle_verdicts",
             "is_consistent_cut_indices", "conforming_two_party_vector"}


def test_reference_semantics_stays_behind_the_oracle():
    """No module of the package imports a test module, defines a name of
    `tests/reference.py`, or takes from the oracle more than the names the
    benchmark's tracer wraps; only the oracle defines the timed trace and
    its rewrite fold."""
    test_modules = {p.stem for p in Path(__file__).parent.glob("*.py")} | {"tests"}
    for path in sorted(Path(mtlmon.__file__).parent.glob("*.py")):
        names, from_oracle, defined = set(), set(), set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names |= {part for a in node.names for part in a.name.split(".")}
            elif isinstance(node, ast.ImportFrom):
                names |= set((node.module or "").split(".")) | {a.name for a in node.names}
                if node.level == 1 and node.module == "oracle":
                    from_oracle |= {a.name for a in node.names}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
        module = path.stem
        assert not names & test_modules, module
        assert not defined & REFERENCE, module
        if module == "oracle":
            assert {"TimedTrace", "progress"} <= defined
        else:
            assert not defined & {"TimedTrace", "progress"}, module
            assert from_oracle == ORACLE_IMPORTS.get(module, set()), module
