import random

import pytest
from hypothesis import given, settings, strategies as st

from mtlmon import progression
from mtlmon.formula import (
    FALSE,
    TRUE,
    Atom,
    Eventually,
    Globally,
    Interval,
    Not,
    Or,
    SumAtom,
    mk_and,
    mk_or,
    shift_anchored,
    simplify,
)
from mtlmon.oracle import TimedTrace, progress
from mtlmon.parser import parse_spec
from mtlmon.progression import advance, advance_all, shift_all, step
from mtlmon.semantics import State, Verdict, finalize
import reference
from reference import eval_finite, trace_of
from support import ATOMS, random_formula, random_trace


class TestWorkedChain:
    """The three-segment rewrite of F[0,6) r -> (!p U[2,9) q)."""

    def seg(self, pairs):
        return trace_of(pairs)

    def test_full_chain(self):
        f0 = parse_spec("F[0,6) r -> (!p U[2,9) q)")
        s1 = self.seg([(set(), 1), (set(), 2), (set(), 3)])
        s2 = self.seg([({"r"}, 3), (set(), 4), (set(), 5)])
        s3 = self.seg([(set(), 6), ({"q"}, 7), ({"p"}, 7)])
        f1 = progress(s1, f0, elapsed=s2.times[0] - s1.times[0])
        assert f1 == parse_spec("F[0,4) r -> (!p U[0,7) q)")
        f2 = progress(s2, f1, elapsed=s3.times[0] - s2.times[0])
        assert f2 == parse_spec("!p U[0,4) q")
        f3 = progress(s3, f2)
        assert f3 == TRUE


class TestBaseCases:
    def test_atom(self):
        t = trace_of([({"a"}, 0)])
        assert progress(t, Atom("a")) == TRUE
        assert progress(t, Atom("b")) == FALSE

    def test_sum_atom(self):
        t = trace_of([({"x"}, {"to_alice": 100, "from_alice": 100}, 0)])
        assert progress(t, SumAtom("alice", "alice")) == TRUE
        assert progress(t, SumAtom("alice", "alice", 1)) == FALSE

    def test_negation_and_disjunction(self):
        t = trace_of([({"a"}, 0)])
        assert progress(t, Not(Atom("a"))) == FALSE
        assert progress(t, Or(Atom("a"), Atom("b"))) == TRUE

    def test_disjunction_of_residuals(self):
        t = trace_of([(set(), 0), (set(), 2)])
        f = Or(Eventually(Interval(5, 9), Atom("p")), Globally(Interval(5, 9), Atom("q")))
        assert progress(t, f) == Or(
            Eventually(Interval(3, 7), Atom("p")), Globally(Interval(3, 7), Atom("q"))
        )

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            progress(TimedTrace((), ()), TRUE)


class TestGlobally:
    def test_window_beyond_trace_shifts(self):
        t = trace_of([(set(), 1), (set(), 2), (set(), 3)])
        assert progress(t, Globally(Interval(5, 9), Atom("p"))) == Globally(
            Interval(3, 7), Atom("p")
        )

    def test_partially_observed_window_keeps_residual(self):
        t = trace_of([({"p"}, 0), ({"p"}, 1)])
        out = progress(t, Globally(Interval(0, 2), Atom("p")))
        # one more state at time 1 could still arrive in the continuation
        assert out == Globally(Interval(0, 1), Atom("p"))
        # and the residual is what the concatenation semantics demands
        cont_ok = trace_of([({"p"}, 1)])
        cont_bad = trace_of([(set(), 1)])
        assert eval_finite(cont_ok, out, 0) is Verdict.TOP
        assert eval_finite(cont_bad, out, 0) is Verdict.BOTTOM

    def test_violation_constant_folds(self):
        t = trace_of([({"p"}, 0), (set(), 1)])
        assert progress(t, Globally(Interval(0, 5), Atom("p"))) == FALSE


class TestEventually:
    def test_shift_matches_observed_span(self):
        t = trace_of([(set(), 1), (set(), 2), (set(), 3)])
        assert progress(t, Eventually(Interval(0, 6), Atom("r"))) == Eventually(
            Interval(0, 4), Atom("r")
        )

    def test_witness_at_offset_zero(self):
        t = trace_of([({"r"}, 3)])
        assert progress(t, Eventually(Interval(0, 3), Atom("r"))) == TRUE

    def test_no_witness_and_window_elapsed(self):
        t = trace_of([(set(), 0), (set(), 9)])
        assert progress(t, Eventually(Interval(0, 5), Atom("r"))) == FALSE


class TestUntil:
    def test_immediate_witness(self):
        t = trace_of([({"q"}, 0)])
        assert progress(t, parse_spec("p U[0,5) q")) == TRUE

    def test_window_entirely_ahead(self):
        t = trace_of([({"p"}, 0), ({"p"}, 1)])
        out = progress(t, parse_spec("p U[7,9) q"))
        assert out == parse_spec("p U[6,8) q")

    def test_left_failure_before_window_closes(self):
        t = trace_of([({"p"}, 0), (set(), 1)])
        assert progress(t, parse_spec("p U[3,9) q")) == FALSE

    def test_equal_timestamp_witness_respects_positions(self):
        # two states at one timestamp: the earlier position still must
        # satisfy the left operand for a later-position witness
        t = trace_of([({"x"}, 5), ({"q"}, 5)])
        assert progress(t, parse_spec("!x U[0,6) q")) == FALSE
        t2 = trace_of([(set(), 5), ({"q"}, 5)])
        assert progress(t2, parse_spec("!x U[0,6) q")) == TRUE


class TestSoundness:
    """Finalize-or-evaluate agreement against the reference evaluator."""

    def test_every_split_agrees(self):
        rng = random.Random(101)
        checked = 0
        for _ in range(400):
            tr = random_trace(rng, 10)
            f = random_formula(rng, rng.randrange(1, 4))
            whole = eval_finite(tr, f, 0)
            for cut in range(1, len(tr) + 1):
                prefix = TimedTrace(tr.states[:cut], tr.times[:cut])
                if cut == len(tr):
                    got = finalize(progress(prefix, f))
                else:
                    suffix = TimedTrace(tr.states[cut:], tr.times[cut:])
                    res = progress(prefix, f, elapsed=suffix.times[0] - prefix.times[0])
                    got = eval_finite(suffix, res, 0)
                assert got == whole
                checked += 1
        assert checked > 1500

    def test_rewrite_composes_syntactically(self):
        # progressing the whole trace equals progressing the suffix after
        # the prefix, as formulas and not only as verdicts
        rng = random.Random(102)
        splits = 0
        for _ in range(400):
            tr = random_trace(rng, 10)
            f = random_formula(rng, rng.randrange(1, 4))
            whole = progress(tr, f)
            for cut in range(1, len(tr)):
                prefix = TimedTrace(tr.states[:cut], tr.times[:cut])
                suffix = TimedTrace(tr.states[cut:], tr.times[cut:])
                mid = progress(prefix, f, elapsed=suffix.times[0] - prefix.times[0])
                assert progress(suffix, mid) == whole, (str(f), cut)
                splits += 1
        assert splits > 1000

    def test_negation_duality(self):
        rng = random.Random(55)
        for _ in range(250):
            tr = random_trace(rng, 6)
            f = random_formula(rng, 2)
            a = progress(tr, Not(f))
            b = Not(progress(tr, f))
            cont = random_trace(rng, 5)
            gap = rng.randrange(0, 3)
            cont = TimedTrace(
                cont.states, tuple(t + tr.times[-1] + gap for t in cont.times)
            )
            # truth-equivalent on arbitrary continuations
            ea = eval_finite(cont, a, 0)
            eb = eval_finite(cont, simplify(b), 0)
            assert ea == eb

    def test_constant_results_are_definitive(self):
        rng = random.Random(56)
        confirmed = 0
        while confirmed < 100:
            tr = random_trace(rng, 6)
            f = random_formula(rng, 2)
            out = progress(tr, f)
            if out not in (TRUE, FALSE):
                continue
            confirmed += 1
            expected = Verdict.TOP if out == TRUE else Verdict.BOTTOM
            for _ in range(20):
                cont = random_trace(rng, 6)
                cont = TimedTrace(
                    cont.states, tuple(t + tr.times[-1] for t in cont.times)
                )
                states = tr.states + cont.states
                times = tr.times + cont.times
                assert eval_finite(TimedTrace(states, times), f, 0) == expected

    def test_outputs_are_normalized(self):
        rng = random.Random(57)
        for _ in range(300):
            tr = random_trace(rng, 8)
            f = random_formula(rng, rng.randrange(1, 4))
            out = progress(tr, f)
            assert simplify(out) == out


class TestOnePathForTime:
    """Time passes only through `shift_anchored`: a step takes no time."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 3), st.integers(0, 12))
    def test_step_then_shift_is_the_timed_rewrite(self, seed, depth, gap):
        """Stepping with no time and then shifting by the gap gives the
        very object the rewrite that shifts each window itself gives."""
        rng = random.Random(seed)
        f = simplify(random_formula(rng, depth))
        s_ = State(frozenset(a for a in ATOMS if rng.random() < 0.5))
        assert shift_anchored(step(s_, f), gap) is reference.step(s_, f, gap)


class TestAdvance:
    """`advance` is the one memoized rewrite both engines run, and
    `shift_all` the memoized shift of the cut walk."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.lists(st.integers(0, 12), min_size=1, max_size=3))
    def test_equals_step_and_shift_on_a_cold_and_a_warm_memo(self, seed, gaps):
        """`advance` and `advance_all` over two states, and `shift_all`
        by each gap, of one formula: first on a cleared memo, then again
        on the memo those calls left."""
        rng = random.Random(seed)
        f = simplify(random_formula(rng, rng.randrange(0, 4)))
        states = [State(frozenset(a for a in ATOMS if rng.random() < 0.5)) for _ in range(2)]
        expected = [step(s_, f) for s_ in states] + [shift_anchored(f, gap) for gap in gaps]

        def run():
            stepped = [advance(s_, f) for s_ in states]
            for s_, g in zip(states, stepped):
                assert advance_all(s_, {f: 1}) == {g: 1}
            shifted = []
            for gap in gaps:
                [(g, m)] = shift_all({f: 1}, gap).items()
                assert m == 1
                shifted.append(g)
            return stepped + shifted

        progression._rewrites.clear()
        cold = run()
        assert cold == expected
        warm = run()
        assert warm == expected
        assert all(w is c for w, c in zip(warm, cold))

    def test_steps_each_operand_of_a_junction_once(self, monkeypatch):
        """A junction is stepped operand by operand through the memo: each
        operand's key is entered, and an operand two junctions share is
        stepped once."""
        p, later = Atom("p"), Eventually(Interval(2, 5), Atom("q"))
        f = mk_and(Globally(Interval(0, 9), p), later)
        g = mk_or(later, Atom("r"))
        s_ = State(frozenset({"p", "r"}))
        expected = [step(s_, f), step(s_, g)]
        stepped = []
        real_step = progression.step
        monkeypatch.setattr(progression, "step",
                            lambda st_, h: stepped.append(h) or real_step(st_, h))
        progression._rewrites.clear()
        assert [advance(s_, f), advance(s_, g)] == expected
        assert f not in stepped and g not in stepped
        assert stepped.count(later) == 1
        for h in f.args + g.args:
            assert progression._rewrites[s_, h] == advance(s_, h)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 12), st.booleans())
    def test_stepping_a_set_folds_advance(self, seed, gap, shift):
        """`advance_all` of a pending set, on a cold and on a warm memo,
        equals `advance` of each formula with the masks of the formulas
        that step to one residual OR-ed, in the order the residuals are
        first reached; so too `shift_all`, with `shift_anchored`, which
        returns the set itself when the gap is 0."""
        rng = random.Random(seed)
        fs = {simplify(random_formula(rng, rng.randrange(0, 3))): 1 << b for b in range(6)}
        s_ = State(frozenset(a for a in ATOMS if rng.random() < 0.5))
        one = (lambda f: shift_anchored(f, gap)) if shift else (lambda f: advance(s_, f))
        progression._rewrites.clear()
        expected = {}
        for f, m in fs.items():
            g = one(f)
            expected[g] = expected.get(g, 0) | m
        progression._rewrites.clear()
        for _ in range(2):
            out = shift_all(fs, gap) if shift else advance_all(s_, fs)
            assert list(out.items()) == list(expected.items())
        assert (shift_all(fs, gap) is fs) == (gap == 0)

    def test_formulas_stepping_to_one_residual_share_it(self):
        """Two formulas that step and shift to one residual leave one
        entry whose mask ORs both of theirs."""
        p, q = Atom("p"), Atom("q")
        later = Eventually(Interval(0, 3), q)
        f, g = mk_or(p, later), mk_and(Not(q), later)  # both step to F[0,3) q
        s_ = State(frozenset())
        progression._rewrites.clear()
        out = shift_all(advance_all(s_, {f: 0b01, g: 0b10, p: 0b100}), 2)
        assert out == {Eventually(Interval(0, 1), q): 0b11, FALSE: 0b100}
