import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from mtlmon.computation import (
    ComputationError,
    Event,
    build_computation,
    segment_tables,
    time_window,
)
from mtlmon.pipeline import BOUNDARY_EXACT, consumption_boundaries
from mtlmon.semantics import State
from reference import is_consistent_cut_indices
from support import cut_before, held_at, random_events, reference_boundaries, reference_order


def ev(proc, t, props=()):
    return Event(proc, t, State(frozenset(props)))


def fig3():
    return [ev("P1", 1, {"a"}), ev("P1", 4), ev("P2", 2, {"a"}), ev("P2", 5, {"b"})]


# fig3 indexes by (local time, process): P1@1, P2@2, P1@4, P2@5
A1, A2, NA4, B5 = range(4)


class TestBuild:
    def test_skew_ordering(self):
        c = build_computation(fig3(), epsilon=2)
        assert A1 in c.hb[NA4]  # program order
        assert A1 in c.hb[B5]  # 5 - 1 >= 2
        assert A2 in c.hb[NA4]  # 4 - 2 >= 2 (non-strict threshold)
        assert NA4 not in c.hb[B5]  # 5 - 4 < 2
        assert A1 not in c.hb[A2]  # 2 - 1 < 2
        assert c.clock == ((0, 0), (0, 0), (1, 1), (1, 1))

    def test_single_process_total_order(self):
        c = build_computation([ev("P", 1), ev("P", 2), ev("P", 3)], epsilon=2)
        for i in range(3):
            for j in range(3):
                assert (i in c.hb[j]) == (i < j)

    def test_equal_timestamps_concurrent(self):
        c = build_computation([ev("P1", 0), ev("P2", 0)], epsilon=1)
        assert c.hb == (frozenset(), frozenset())

    def test_irreflexive(self):
        c = build_computation(fig3(), 2)
        for i in range(len(c)):
            assert i not in c.hb[i]

    def test_duplicate_slot_rejected(self):
        with pytest.raises(ComputationError):
            build_computation([ev("P1", 3), ev("P1", 3, {"x"})], 1)

    def test_dangling_message_rejected(self):
        events = [Event("P1", 1, State(), "send", "m"), ev("P2", 5)]
        with pytest.raises(ComputationError):
            build_computation(events, 1)

    def test_cycle_rejected(self):
        # the receive is epsilon-before its own send
        events = [
            Event("P1", 9, State(), "send", "m"),
            Event("P2", 1, State(), "recv", "m"),
        ]
        with pytest.raises(ComputationError):
            build_computation(events, 2)

    def test_sends_after_their_receives_two_deep(self):
        """Each receive sorts before its send, and the send of m1 follows
        the receive of m2 on P2, whose send sorts last: the receive of m1
        waits on a send that waits on a deferred receive. The clocks
        equal the brute-force closure's."""
        events = [
            Event("P1", 1, State(), "recv", "m1"), ev("P1", 2),
            Event("P2", 3, State(), "recv", "m2"), Event("P2", 5, State(), "send", "m1"),
            Event("P3", 7, State(), "send", "m2"), ev("P3", 20), ev("P1", 21),
        ]
        c = build_computation(events, 10)
        ordered, hb, cyclic = reference_order(events, 10)
        assert not cyclic
        assert c.events == ordered and c.hb == hb
        # P1@1 waits on P2@5, which waits on P2@3, which waits on P3@7
        assert c.clock[0] == (0, 2, 1)
        assert c.clock[1] == (1, 2, 1)

    def test_cycle_through_a_deferred_event_is_named(self):
        """The receive P1@1 sorts before its send P2@5, which the skew
        rule puts after P1@2: a cycle through the deferred receive. P1@8,
        off the cycle, waits on it too; the error names an event on the
        cycle."""
        events = [
            Event("P1", 1, State(), "recv", "m"), ev("P1", 2),
            Event("P2", 5, State(), "send", "m"), ev("P1", 8), ev("P3", 0),
        ]
        _ordered, _hb, cyclic = reference_order(events, 3)
        assert {str(_ordered[i]) for i in cyclic} == {"P1@1", "P1@2", "P2@5"}
        with pytest.raises(ComputationError) as exc:
            build_computation(events, 3)
        named = re.search(r"cycle through (\S+):", str(exc.value)).group(1)
        assert named in {"P1@1", "P1@2", "P2@5"}

    def test_deterministic_indexing(self):
        evs = fig3()
        random.Random(1).shuffle(evs)
        c = build_computation(evs, 2)
        assert [(e.process, e.local_time) for e in c.events] == [
            ("P1", 1), ("P2", 2), ("P1", 4), ("P2", 5),
        ]

    def test_order_is_strict_partial_order(self):
        rng = random.Random(9)
        for _ in range(30):
            evs = random_events(rng, rng.randrange(1, 4), rng.randrange(2, 9))
            c = build_computation(evs, rng.choice([1, 2, 3]))
            n = len(c)
            for i in range(n):
                assert i not in c.hb[i]
                for j in c.hb[i]:
                    assert i not in c.hb[j]  # antisymmetry
                    assert c.hb[j] <= c.hb[i]  # transitivity


class TestCuts:
    def test_empty_and_full_are_consistent(self):
        c = build_computation(fig3(), 2)
        assert is_consistent_cut_indices(c, set())
        assert is_consistent_cut_indices(c, set(range(len(c))))

    def test_missing_predecessor_is_inconsistent(self):
        c = build_computation(fig3(), 2)
        assert not is_consistent_cut_indices(c, {B5})
        assert not is_consistent_cut_indices(c, {A1, NA4})  # NA4 needs A2
        assert is_consistent_cut_indices(c, {A1, A2, NA4})

    def test_frontier(self):
        # a segment's base cut counts each process's events before it, and
        # each process holds the payload of its latest event in that cut
        c = build_computation(fig3(), 2)
        p = [e.payload for e in c.events]
        bases = [segment_tables(c, range(i, 4)).base for i in range(5)]
        assert bases == [cut_before(c, i) for i in range(5)]
        assert bases == [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]
        assert held_at(c, cut_before(c, NA4)) == {"P1": p[A1], "P2": p[A2]}
        assert held_at(c, cut_before(c, A1)) == {}
        assert held_at(c, (2, 0)) == {"P1": p[NA4]}
        # the segment tables hold the same payloads, by clock column
        assert segment_tables(c, range(NA4, 4)).held == [p[A1], p[A2]]
        assert segment_tables(c, range(A2, 4)).held == [p[A1], None]


class TestTimeWindow:
    def test_examples(self):
        assert list(time_window(ev("P", 3), 2)) == [2, 3, 4]
        assert list(time_window(ev("P", 4), 2)) == [3, 4, 5]
        assert list(time_window(ev("P", 0), 3)) == [0, 1, 2]
        assert list(time_window(ev("P", 7), 1)) == [7]

    def test_window_symmetry(self):
        for eps in (1, 2, 3, 4):
            for sigma in range(eps - 1, 10):
                w = set(time_window(ev("P", sigma), eps))
                for t in range(0, 15):
                    assert (t in w) == (abs(t - sigma) <= eps - 1)


@st.composite
def logs(draw):
    """(events, epsilon): 1-4 processes, epsilon 1-4, with or without
    message pairs; a message may dangle or run against the skew order."""
    epsilon = draw(st.integers(1, 4))
    slots = []
    for p in range(draw(st.integers(1, 4))):
        t = draw(st.integers(0, 3))
        for _ in range(draw(st.integers(0, 5))):
            slots.append([f"P{p + 1}", t, "local", None])
            t += draw(st.integers(1, 6))
    if slots and draw(st.booleans()):
        pairs = st.tuples(st.integers(0, len(slots) - 1), st.integers(0, len(slots) - 1))
        for n, (a, b) in enumerate(draw(st.lists(pairs, min_size=1, max_size=4))):
            if slots[a][2] == slots[b][2] == "local" and slots[a][0] != slots[b][0]:
                slots[a][2:] = ["send", f"m{n}"]
                slots[b][2:] = ["recv", f"m{n}"]
        unused = [s for s in slots if s[2] == "local"]
        if unused and draw(st.integers(0, 9)) == 0:
            unused[0][2:] = ["send", "orphan"]
    return [Event(p, t, State(), kind, msg) for p, t, kind, msg in slots], epsilon


class TestAgainstReference:
    """The vector-clock order and the bisecting boundary search against
    brute force on random logs."""

    @settings(max_examples=400, deadline=None)
    @given(logs())
    def test_order_equals_cubic_closure(self, log):
        events, epsilon = log
        try:
            ordered, hb, cyclic = reference_order(events, epsilon)
        except ComputationError:
            with pytest.raises(ComputationError):
                build_computation(events, epsilon)
            return
        if cyclic:
            with pytest.raises(ComputationError):
                build_computation(events, epsilon)
            return
        c = build_computation(events, epsilon)
        assert c.events == ordered
        assert c.hb == hb

    @settings(max_examples=200, deadline=None)
    @given(logs(), st.randoms(use_true_random=False))
    def test_restrict_seeds_processes_and_streams(self, log, rnd):
        """A restricted computation holds its processes and streams as
        soon as `restrict` returns, equal to those `build_computation`
        finds for the kept events."""
        events, epsilon = log
        try:
            c = build_computation(events, epsilon)
        except ComputationError:
            return
        sub = c.restrict(i for i in range(len(c)) if rnd.random() < 0.5)
        assert "processes" in vars(sub) and "streams" in vars(sub)
        local = [Event(e.process, e.local_time, e.payload) for e in sub.events]
        built = build_computation(local, epsilon)
        assert built.events == tuple(local)
        assert (sub.processes, sub.streams) == (built.processes, built.streams)

    @settings(max_examples=200, deadline=None)
    @given(logs(), st.data())
    def test_segment_tables_read_the_restricted_copy(self, log, data):
        """The tables of a range of consecutive events: each process's
        block, its enabling cuts clamped at 0 on the columns of the
        processes with an event in the range, which are the clocks of the
        restricted copy, and the payloads `held_at` reads off the base
        cut."""
        events, epsilon = log
        try:
            c = build_computation(events, epsilon)
        except ComputationError:
            return
        if not len(c):
            return
        lo = data.draw(st.integers(0, len(c) - 1))
        consumed = range(lo, data.draw(st.integers(lo + 1, len(c))))
        seg = segment_tables(c, consumed)
        assert (seg.base, seg.end) == (cut_before(c, lo), cut_before(c, consumed.stop))
        assert sorted(i for blk in seg.blocks for i in blk) == list(consumed)
        cols = [k for k, blk in enumerate(seg.blocks) if blk]
        need = {i: n for blk, ns in zip(seg.blocks, seg.enabling) for i, n in zip(blk, ns)}
        clamped = tuple(tuple(max(need[i][k], 0) for k in cols) for i in consumed)
        assert clamped == c.restrict(consumed).clock
        held = held_at(c, seg.base)
        assert seg.held == [held.get(p) for p in c.processes]

    @settings(max_examples=400, deadline=None)
    @given(logs())
    def test_cycle_error_names_an_event_on_a_cycle(self, log):
        events, epsilon = log
        try:
            ordered, _hb, cyclic = reference_order(events, epsilon)
        except ComputationError:
            return
        if not cyclic:
            return
        with pytest.raises(ComputationError) as exc:
            build_computation(events, epsilon)
        named = re.search(r"cycle through (\S+):", str(exc.value)).group(1)
        assert named in {str(ordered[i]) for i in cyclic}

    @settings(max_examples=400, deadline=None)
    @given(logs(), st.integers(1, 10), st.integers(0, 3))
    def test_exact_boundaries_equal_full_scan(self, log, g, extra):
        events, epsilon = log
        events = sorted(events, key=lambda e: (e.local_time, e.process))
        l = max((e.local_time for e in events), default=0) + extra
        assert consumption_boundaries(events, g, l, epsilon, BOUNDARY_EXACT) == (
            reference_boundaries(events, g, l, epsilon)
        )
