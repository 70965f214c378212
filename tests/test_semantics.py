import random

import pytest

from mtlmon.formula import (
    FALSE,
    TRUE,
    Atom,
    Eventually,
    Globally,
    Interval,
    Not,
    Until,
)
from mtlmon.parser import parse_spec
from mtlmon.semantics import Verdict, eval_finite, finalize, trace_of
from support import random_formula, random_trace


def fig_traces():
    sat = trace_of([({"a"}, 1), ({"a"}, 2), ({"b"}, 4), (set(), 5)])
    vio = trace_of([({"a"}, 1), ({"a"}, 2), (set(), 4), ({"b"}, 5)])
    return sat, vio


class TestEvalFinite:
    def test_until_satisfied_and_violated(self):
        phi = parse_spec("a U[0,6) b")
        sat, vio = fig_traces()
        assert eval_finite(sat, phi, 0) is Verdict.TOP
        assert eval_finite(vio, phi, 0) is Verdict.BOTTOM

    def test_constants(self):
        tr = random_trace(random.Random(0), 5)
        assert eval_finite(tr, TRUE, 0) is Verdict.TOP
        assert eval_finite(tr, FALSE, 0) is Verdict.BOTTOM

    def test_nine_state_timeline(self):
        tr = trace_of(
            [(set(), 1), (set(), 2), (set(), 3), ({"r"}, 3), (set(), 4),
             (set(), 5), (set(), 6), ({"q"}, 7), ({"p"}, 7)]
        )
        phi = parse_spec("F[0,6) r -> (!p U[2,9) q)")
        assert eval_finite(tr, phi, 0) is Verdict.TOP

    def test_eventually_defaults_bottom_globally_top(self):
        tr = trace_of([(set(), 0), (set(), 1)])
        assert eval_finite(tr, Eventually(Interval(0, 10), Atom("p")), 0) is Verdict.BOTTOM
        assert eval_finite(tr, Globally(Interval(0, 10), Atom("p")), 1) is Verdict.BOTTOM
        assert eval_finite(tr, Globally(Interval(5, 10), Atom("p")), 0) is Verdict.TOP

    def test_position_out_of_range(self):
        tr = trace_of([(set(), 0)])
        with pytest.raises(IndexError):
            eval_finite(tr, TRUE, 1)

    def test_sum_atom_reads_variables(self):
        tr = trace_of([({"x"}, {"to_alice": 100, "from_alice": 100}, 0)])
        assert eval_finite(tr, parse_spec("sum(to:alice) >= sum(from:alice)"), 0) is Verdict.TOP
        assert (
            eval_finite(tr, parse_spec("sum(to:alice) >= sum(from:alice) + 1"), 0)
            is Verdict.BOTTOM
        )

    def test_desugaring_soundness(self):
        rng = random.Random(77)
        for _ in range(1000):
            tr = random_trace(rng, 8)
            i = rng.randrange(len(tr))
            iv = Interval(rng.randrange(0, 4), rng.choice([None, rng.randrange(4, 10)]))
            inner = random_formula(rng, 1)
            assert eval_finite(tr, Eventually(iv, inner), i) == eval_finite(
                tr, Until(TRUE, iv, inner), i
            )
            assert eval_finite(tr, Globally(iv, inner), i) == eval_finite(
                tr, Not(Eventually(iv, Not(inner))), i
            )


class TestFinalize:
    def test_examples(self):
        assert finalize(Globally(Interval(0, 4), Atom("p"))) is Verdict.TOP
        assert finalize(Until(Atom("p"), Interval(0, 3), Atom("q"))) is Verdict.BOTTOM
        assert finalize(TRUE) is Verdict.TOP
        assert finalize(Eventually(Interval(0, None), Atom("p"))) is Verdict.BOTTOM

    def test_total_on_random_formulas(self):
        rng = random.Random(3)
        for _ in range(300):
            f = random_formula(rng, rng.randrange(0, 4))
            assert finalize(f) in (Verdict.TOP, Verdict.BOTTOM)

    def test_negation_flips(self):
        rng = random.Random(4)
        for _ in range(200):
            f = random_formula(rng, 2)
            assert finalize(Not(f)) == ~finalize(f)
