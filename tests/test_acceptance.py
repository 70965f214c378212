"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its measured numbers. Budgets are wall-clock and generous for CI
noise; every expected value is pinned, nothing is calibrated at runtime.
"""

import random
import statistics
import time

from mtlmon.casegen import (
    ProtocolParams,
    conforming_two_party_vector,
    enumerate_two_party_executions,
    gen_random_computation,
    gen_two_party_log,
    spec_library,
)
from mtlmon.computation import Event, build_computation
from mtlmon.formula import TRUE, max_nesting
from mtlmon.oracle import oracle_verdicts
from mtlmon.parser import parse_spec
from mtlmon.pipeline import MonitorConfig, monitor
from mtlmon.progression import progress
from mtlmon.semantics import State, TimedTrace, Verdict, eval_finite, finalize, trace_of
from mtlmon.smt import bundled_solver_command, enumerate_verdicts
from support import (
    bounded_computation,
    oracle_pairs,
    random_flat_formula,
    random_formula,
    random_trace,
)

CMD = bundled_solver_command()


def ev(proc, t, props=()):
    return Event(proc, t, State(frozenset(props)))


def test_criterion_1_skewed_until_yields_both_verdicts(criterion_line):
    """Four events, skew 2: the until admits exactly top and bottom."""
    events = [ev("P1", 1, {"a"}), ev("P1", 4), ev("P2", 2, {"a"}), ev("P2", 5, {"b"})]
    phi = parse_spec("a U[0,6) b")
    t0 = time.perf_counter()
    report = monitor(events, phi, MonitorConfig(epsilon=2, segments=1))
    dt = time.perf_counter() - t0
    ok = report.verdicts == {Verdict.TOP, Verdict.BOTTOM} and dt < 1.0
    criterion_line(1, ok, f"verdicts {{⊤,⊥}} from one segment in {dt:.3f}s (budget 1s)")
    assert report.verdicts == {Verdict.TOP, Verdict.BOTTOM}
    assert dt < 1.0


def test_criterion_2_three_segment_rewrite_chain(criterion_line):
    """The worked three-segment rewrite: the second segment must produce
    exactly !p U[0,4) q and the third must close to true."""
    f0 = parse_spec("F[0,6) r -> (!p U[2,9) q)")
    s1 = trace_of([(set(), 1), (set(), 2), (set(), 3)])
    s2 = trace_of([({"r"}, 3), (set(), 4), (set(), 5)])
    s3 = trace_of([(set(), 6), ({"q"}, 7), ({"p"}, 7)])
    t0 = time.perf_counter()
    f1 = progress(s1, f0, elapsed=s2.times[0] - s1.times[0])
    f2 = progress(s2, f1, elapsed=s3.times[0] - s2.times[0])
    f3 = progress(s3, f2)
    dt = time.perf_counter() - t0
    # segment 1 keeps the implication with both windows shifted by the
    # elapsed time (2 units); segments 2 and 3 are pinned outputs
    ok = (
        f1 == parse_spec("F[0,4) r -> (!p U[0,7) q)")
        and f2 == parse_spec("!p U[0,4) q")
        and f3 == TRUE
        and dt < 1.0
    )
    criterion_line(
        2, ok,
        f"chain [{f1}] -> [{f2}] -> [{f3}] in {dt:.3f}s (budget 1s)",
    )
    assert f2 == parse_spec("!p U[0,4) q")
    assert f3 == TRUE
    assert f1 == parse_spec("F[0,4) r -> (!p U[0,7) q)")
    assert dt < 1.0


def test_criterion_3_two_segment_swap(criterion_line):
    """Two-chain swap, two window segments: both shifted untils appear
    after segment one and the final verdict set is {⊤, ⊥}."""
    events = [
        ev("apr", 1), ev("apr", 3), ev("apr", 5), ev("apr", 7, {"apr_redeem_bob"}),
        ev("ban", 1), ev("ban", 4), ev("ban", 6), ev("ban", 7, {"ban_redeem_alice"}),
    ]
    phi = parse_spec("!apr_redeem_bob U[0,8) ban_redeem_alice")
    cfg = MonitorConfig(
        epsilon=2, segments=2, length=8, boundary="window",
        branch_cap=256, max_verdicts_per_segment=256,
    )
    t0 = time.perf_counter()
    report = monitor(events, phi, cfg)
    dt = time.perf_counter() - t0
    want = {
        str(parse_spec("!apr_redeem_bob U[0,4) ban_redeem_alice")),
        str(parse_spec("!apr_redeem_bob U[0,3) ban_redeem_alice")),
    }
    got = set(report.segments[0].branches)
    ok = want <= got and report.verdicts == {Verdict.TOP, Verdict.BOTTOM} and dt < 5.0
    criterion_line(
        3, ok,
        f"segment-1 branches ⊇ {{U[0,4), U[0,3)}}, final {{⊤,⊥}} in {dt:.3f}s (budget 5s)",
    )
    assert want <= got
    assert report.verdicts == {Verdict.TOP, Verdict.BOTTOM}
    assert dt < 5.0


def test_criterion_4_solver_engine_equals_oracle(criterion_line):
    """200 seeded computations (|E| <= 8, <= 3 processes, eps in 1..3),
    one segment each: the solver-backed enumeration's (residual, last time)
    outcomes equal the exhaustive oracle's exactly."""
    rng = random.Random(20240)
    mismatches = queries = 0
    t0 = time.perf_counter()
    for case in range(200):
        nested = case % 7 == 3  # a fifth of the corpus nests timed operators
        if nested:
            comp = bounded_computation(rng, max_events=5, epsilons=(1, 2), lin_cap=150)
            f = random_formula(rng, 2, constants=False)
            while max_nesting(f) < 2:
                f = random_formula(rng, 2, constants=False)
        else:
            comp = bounded_computation(rng, max_events=8, lin_cap=900)
            f = random_flat_formula(rng)
        enum = enumerate_verdicts(comp, f, 128, CMD)
        queries += enum.queries
        if not enum.complete or set(enum.branches) != oracle_pairs(comp, f):
            mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 600
    criterion_line(
        4, ok,
        f"200 computations, {mismatches} mismatches, {queries} solver queries,"
        f" {dt:.1f}s (budget 600s)",
    )
    assert mismatches == 0
    assert dt < 600


def test_criterion_5_rewrite_soundness(criterion_line):
    """1000 seeded traces (length <= 12, depth <= 3), every split point:
    rewriting the prefix and finishing on the suffix agrees with whole-trace
    evaluation."""
    rng = random.Random(50505)
    mismatches = 0
    splits = 0
    t0 = time.perf_counter()
    for _ in range(1000):
        tr = random_trace(rng, 12)
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
            splits += 1
            if got != whole:
                mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 60
    criterion_line(
        5, ok,
        f"1000 cases / {splits} splits, {mismatches} mismatches, {dt:.1f}s (budget 60s)",
    )
    assert mismatches == 0
    assert dt < 60


def test_criterion_6_segmentation_invariance(criterion_line):
    """100 seeded computations: the verdict set is identical for one, two,
    and three segments."""
    rng = random.Random(60606)
    mismatches = 0
    t0 = time.perf_counter()
    for _ in range(100):
        comp = bounded_computation(rng, max_events=7, lin_cap=800)
        events = list(comp.events)
        f = random_formula(rng, rng.randrange(1, 3))
        base = oracle_verdicts(comp, f)
        for g in (1, 2, 3):
            cfg = MonitorConfig(
                epsilon=comp.epsilon, segments=g,
                branch_cap=4096, max_verdicts_per_segment=4096,
            )
            if monitor(events, f, cfg).verdicts != base:
                mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0
    criterion_line(6, ok, f"100 computations x g in {{1,2,3}}, {mismatches} mismatches, {dt:.1f}s")
    assert mismatches == 0


def test_criterion_7_swap_grid(criterion_line):
    """Exactly 1024 generated logs; the conforming timely log satisfies
    liveness and safety at eps=1; with deadline 2 and skew 2 some log
    splits a deadline spec into {⊤, ⊥}."""
    t0 = time.perf_counter()
    vectors = enumerate_two_party_executions()
    count_ok = len(vectors) == 1024 and len(set(vectors)) == 1024

    params = ProtocolParams(delta=10)
    lib = spec_library(delta=10)
    cfg = MonitorConfig(epsilon=1, segments=1)
    conforming = conforming_two_party_vector()
    conforming_ok = True
    grid_verdicts = {}
    for vec in vectors:
        log = gen_two_party_log(vec, params)
        build_computation(log, 1)  # every log must form a valid computation
        report = monitor(log, lib["liveness_2p"], cfg)
        grid_verdicts[str(vec)] = report.verdicts
    if grid_verdicts[str(conforming)] != {Verdict.TOP}:
        conforming_ok = False
    safety = monitor(
        gen_two_party_log(conforming, params), lib["alice_safety_2p"], cfg
    ).verdicts
    if safety != {Verdict.TOP}:
        conforming_ok = False
    dt = time.perf_counter() - t0

    # skew fragility: deadline comparable to the skew bound
    tight = gen_two_party_log(conforming, ProtocolParams(delta=2))
    deadline = parse_spec("F[0,2) ban.premium_deposited_alice")
    split = monitor(tight, deadline, MonitorConfig(epsilon=2, segments=1)).verdicts
    split_ok = split == {Verdict.TOP, Verdict.BOTTOM}

    ok = count_ok and conforming_ok and split_ok and dt < 120
    criterion_line(
        7, ok,
        f"1024 logs monitored in {dt:.1f}s (budget 120s); conforming {{⊤}};"
        f" delta=2/eps=2 splits to {{⊤,⊥}}",
    )
    assert count_ok
    assert conforming_ok
    assert split_ok
    assert dt < 120


def test_criterion_8_epsilon_scaling_report(criterion_line):
    """Non-gating smoke report: mean monitoring time over a fixed 20-event
    workload for eps 1, 2, 3 (expected non-decreasing, reported only)."""
    phi = parse_spec("G[0,40) (p -> F[0,12) q)")
    means = []
    for eps in (1, 2, 3):
        comp = gen_random_computation(
            seed=2024, processes=2, events=20, epsilon=eps, max_gap=6
        )
        cfg = MonitorConfig(
            epsilon=eps, segments=4, branch_cap=512, max_verdicts_per_segment=512
        )
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            monitor(list(comp.events), phi, cfg)
            samples.append(time.perf_counter() - t0)
        means.append(statistics.mean(samples))
    trend = "non-decreasing" if means == sorted(means) else "NOT monotone"
    criterion_line(
        8, True,
        "mean seconds by eps: "
        + ", ".join(f"eps={e}: {m:.4f}" for e, m in zip((1, 2, 3), means))
        + f" ({trend}; reported, not asserted)",
    )
