import random

import pytest
from hypothesis import given, settings, strategies as st

from mtlmon.formula import (
    EMPTY,
    FALSE,
    TRUE,
    And,
    Atom,
    Eventually,
    FalseF,
    Formula,
    Globally,
    Implies,
    Interval,
    Not,
    Or,
    SumAtom,
    TrueF,
    Until,
    mk_and,
    mk_or,
    operands,
    shift_anchored,
    simplify,
)
from mtlmon.progression import step
from mtlmon.semantics import State
from reference import eval_finite, in_interval
from support import random_formula, random_trace


class TestInterval:
    def test_membership_is_half_open(self):
        iv = Interval(2, 5)
        assert 2 in iv and 4 in iv
        assert 5 not in iv and 1 not in iv

    def test_unbounded(self):
        iv = Interval(3, None)
        assert 3 in iv and 10**9 in iv
        assert 2 not in iv

    def test_degenerate_collapses_to_empty(self):
        assert Interval(5, 5) == EMPTY
        assert Interval(7, 3) == EMPTY
        assert EMPTY.is_empty
        assert 0 not in EMPTY

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Interval(-1, 4)

    def test_shift_examples(self):
        assert Interval(2, 9).shift(3) == Interval(0, 6)
        assert Interval(0, 6).shift(0) == Interval(0, 6)
        assert Interval(1, 3).shift(5) == EMPTY
        assert Interval(4, None).shift(10) == Interval(0, None)

    @given(
        st.integers(0, 30), st.integers(1, 30) | st.none(),
        st.integers(0, 25), st.integers(0, 25),
    )
    def test_shift_composes(self, start, width, t1, t2):
        iv = Interval(start, None if width is None else start + width)
        assert iv.shift(t1).shift(t2) == iv.shift(t1 + t2)

    @given(st.integers(0, 40), st.integers(0, 20), st.integers(1, 25), st.integers(0, 40))
    def test_membership_survives_shift(self, start, width, a_off, t):
        iv = Interval(start, start + width) if width else Interval(start, None)
        a = start + a_off
        if a in iv and a >= t:
            assert (a - t) in iv.shift(t)


class TestInInterval:
    def test_examples(self):
        assert in_interval(4, 1, Interval(0, 6))
        assert not in_interval(7, 1, Interval(0, 6))
        assert in_interval(3, 3, Interval(0, 1))


class TestSimplify:
    def test_constant_folds(self):
        p = Atom("p")
        assert simplify(Or(TRUE, p)) == TRUE
        assert simplify(Or(FALSE, p)) == p
        assert simplify(Not(Not(p))) == p
        assert simplify(Not(TRUE)) == FALSE

    def test_empty_interval_folds(self):
        assert simplify(Eventually(EMPTY, Atom("r"))) == FALSE
        assert simplify(Globally(EMPTY, Atom("r"))) == TRUE
        from mtlmon.formula import Until

        assert simplify(Until(Atom("p"), EMPTY, Atom("q"))) == FALSE

    def test_idempotent_and_truth_preserving(self):
        rng = random.Random(11)
        for _ in range(300):
            f = random_formula(rng, rng.randrange(0, 4))
            s = simplify(f)
            assert simplify(s) == s
            tr = random_trace(rng, 8)
            i = rng.randrange(0, len(tr))
            assert eval_finite(tr, s, i) == eval_finite(tr, f, i)


class TestShiftAnchored:
    def test_only_outer_windows_move(self):
        f = Eventually(Interval(0, 5), Globally(Interval(0, 3), Atom("p")))
        g = shift_anchored(f, 2)
        assert g == Eventually(Interval(0, 3), Globally(Interval(0, 3), Atom("p")))

    def test_collapse_to_constant(self):
        f = Eventually(Interval(0, 3), Atom("p"))
        assert shift_anchored(f, 5) == FALSE
        g = Globally(Interval(1, 4), Atom("p"))
        assert shift_anchored(g, 9) == TRUE


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _one_node_of_each_class():
    p, q, iv = Atom("p"), Atom("q"), Interval(1, 4)
    return [
        TrueF(), FalseF(), p, SumAtom("B", "A", 2), Not(p), And(p, q, Not(q)),
        Or(p, q), Implies(p, q), Until(p, iv, q), Eventually(iv, p),
        Globally(iv, And(p, q)),
    ]


class TestHash:
    def test_every_node_class_takes_the_base_hash(self):
        """A node class that generated its own `__hash__` would rehash
        its whole subtree on every call."""
        classes = list(_subclasses(Formula))
        assert classes
        for cls in classes:
            assert cls.__hash__ is Formula.__hash__, cls.__name__

    def test_equal_nodes_built_apart_hash_equal(self):
        built = _one_node_of_each_class()
        concrete = {cls for cls in _subclasses(Formula) if cls.__subclasses__() == []}
        assert {type(f) for f in built} == concrete
        for a, b in zip(built, _one_node_of_each_class()):
            assert a is not b and a == b and hash(a) == hash(b), a
        assert hash(And(Atom("p"), Atom("q"))) != hash(Or(Atom("p"), Atom("q")))


intervals = st.builds(
    lambda start, width: Interval(start, None if width is None else start + width),
    st.integers(0, 3), st.integers(0, 6) | st.none(),
)
# constants fold whole subtrees away, so they are drawn less often
leaves = st.sampled_from(
    [Atom("p"), Atom("q"), Atom("r"), SumAtom("B", "A", 0), SumAtom("B", "A", 2)]
) | st.sampled_from([TRUE, FALSE])
# arbitrary trees, not normalized: constants, repeats and nested chains
formulas = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Or, sub, sub),
        st.builds(And, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Until, sub, intervals, sub),
        st.builds(Eventually, intervals, sub),
        st.builds(Globally, intervals, sub),
    ),
    max_leaves=10,
)
states = st.builds(
    State,
    st.frozensets(st.sampled_from(["p", "q", "r"])),
    st.fixed_dictionaries({"to_B": st.integers(0, 4), "from_A": st.integers(0, 4)}),
)


def _flatten(f, cls):
    return [h for g in f.args for h in _flatten(g, cls)] if isinstance(f, cls) else [f]


def _list_dedup(cls, unit, zero, fs):
    """The dedup `mk_and`/`mk_or` made before: a scan over a list."""
    seen = []
    for f in fs:
        for g in _flatten(f, cls):
            if isinstance(g, type(zero)):
                return zero
            if not isinstance(g, type(unit)) and g not in seen:
                seen.append(g)
    if not seen:
        return unit
    return cls(*seen) if len(seen) > 1 else seen[0]


def _assert_flat(f):
    """Every And/Or node in f holds two or more operands, none of its own
    connective, none constant and none repeated."""
    if isinstance(f, (And, Or)):
        assert len(f.args) >= 2 and len(set(f.args)) == len(f.args)
        assert not any(isinstance(g, type(f)) or g in (TRUE, FALSE) for g in f.args)
    for g in operands(f):
        _assert_flat(g)


class TestNormalForm:
    """The contract the callers of `step` and `shift_anchored` rely on
    when they normalize once up front and never again."""

    @settings(max_examples=300)
    @given(formulas, states, st.integers(0, 8), st.integers(0, 8))
    def test_step_and_shift_keep_normal_form(self, f, state, gap, t):
        f = simplify(f)
        out = step(state, f, gap)
        assert simplify(out) == out
        shifted = shift_anchored(f, t)
        assert simplify(shifted) == shifted
        for g in (f, out, shifted):
            _assert_flat(g)

    @given(st.lists(formulas, max_size=6))
    def test_dedup_keeps_first_occurrence_order(self, fs):
        pool = fs + fs[::2]  # repeats, some inside nested chains
        assert mk_and(*pool) == _list_dedup(And, TRUE, FALSE, pool)
        assert mk_or(*pool) == _list_dedup(Or, FALSE, TRUE, pool)
        nested = [Or(a, b) for a, b in zip(pool, pool[1:])] + [And(a, a) for a in pool]
        assert mk_and(*nested) == _list_dedup(And, TRUE, FALSE, nested)
        assert mk_or(*nested) == _list_dedup(Or, FALSE, TRUE, nested)
