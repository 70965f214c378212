import hashlib
import random
import warnings

import pytest

from mtlmon.formula import (
    Atom,
    Eventually,
    Implies,
    Interval,
    Not,
    SumAtom,
    TRUE,
    Until,
    simplify,
)
from mtlmon.casegen import spec_library
from mtlmon.parser import MAX_DEPTH, SpecSyntaxError, format_formula, parse_spec
from support import random_formula


class TestParse:
    def test_parse_is_cached_by_text(self):
        text = "G[0,40) (p -> F[0,12) q) & sum(to:B) >= sum(from:A) + 2"
        f = parse_spec(text)
        assert parse_spec(text) is f
        assert parse_spec(text + " ") == f

    def test_syntax_errors_are_not_cached(self):
        before = parse_spec.cache_info()
        for _ in range(3):
            with pytest.raises(SpecSyntaxError):
                parse_spec("G[0,40) (p -> ")
        after = parse_spec.cache_info()
        assert after.misses == before.misses + 3  # each call parsed again
        assert after.currsize == before.currsize

    def test_until_with_negated_left(self):
        f = parse_spec("!apr_redeem_bob U[0,8) ban_redeem_alice")
        assert f == Until(Not(Atom("apr_redeem_bob")), Interval(0, 8),
                          Atom("ban_redeem_alice"))

    def test_true_literal(self):
        assert parse_spec("true") == TRUE

    def test_implication_with_nested_until(self):
        f = parse_spec("F[0,6) r -> (!p U[2,9) q)")
        assert f == Implies(
            Eventually(Interval(0, 6), Atom("r")),
            Until(Not(Atom("p")), Interval(2, 9), Atom("q")),
        )

    def test_untimed_operators_mean_unbounded(self):
        assert parse_spec("F x") == Eventually(Interval(0, None), Atom("x"))
        assert parse_spec("a U b") == Until(Atom("a"), Interval(0, None), Atom("b"))

    def test_dotted_atoms(self):
        f = parse_spec("F[0,500) ban.premium_deposited_alice")
        assert f == Eventually(Interval(0, 500), Atom("ban.premium_deposited_alice"))

    def test_sum_atom(self):
        f = parse_spec("sum(to:alice) >= sum(from:alice) + 2")
        assert f == SumAtom("alice", "alice", 2)
        assert parse_spec("sum(to:bob) >= sum(from:carol)") == SumAtom("bob", "carol", 0)

    def test_comments_and_whitespace(self):
        f = parse_spec("# header\n  F[0,6) r   # trailing\n -> q\n")
        assert f == Implies(Eventually(Interval(0, 6), Atom("r")), Atom("q"))

    def test_precedence(self):
        f = parse_spec("!a & b | c -> d")
        # ! > & > | > ->
        from mtlmon.formula import And, Or

        assert f == Implies(Or(And(Not(Atom("a")), Atom("b")), Atom("c")), Atom("d"))

    def test_syntax_error_carries_position(self):
        with pytest.raises(SpecSyntaxError) as err:
            parse_spec("a U[0,6) ")
        assert err.value.line == 1
        with pytest.raises(SpecSyntaxError):
            parse_spec("((a)")
        with pytest.raises(SpecSyntaxError):
            parse_spec("a @ b")

    @pytest.mark.parametrize(
        "spec, col",
        [
            ("(" * 3000 + "p" + ")" * 3000, MAX_DEPTH + 2),
            ("!" * 3000 + "p", MAX_DEPTH + 2),
            (" & ".join(["p"] * 1500), 4 * (MAX_DEPTH + 1) + 1),
        ],
        ids=["parentheses", "negations", "conjuncts"],
    )
    def test_nesting_past_the_bound_is_a_syntax_error(self, spec, col):
        with pytest.raises(SpecSyntaxError, match="nests deeper") as err:
            parse_spec(spec)
        assert (err.value.line, err.value.col) == (1, col)

    def test_nesting_at_the_bound_parses(self):
        for spec in (
            "(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH,
            "!" * MAX_DEPTH + "p",
            " & ".join(["p"] * (MAX_DEPTH + 1)),
            " U ".join(["p"] * (MAX_DEPTH + 1)),
        ):
            f = parse_spec(spec)
            assert parse_spec(format_formula(f)) == f

    def test_empty_interval_warns_but_parses(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            f = parse_spec("F[5,3) p")
        assert any("canonicalized" in str(w.message) for w in caught)
        from mtlmon.formula import EMPTY

        assert f == Eventually(EMPTY, Atom("p"))


class TestRoundTrip:
    def test_random_formulas_round_trip(self):
        rng = random.Random(23)
        for _ in range(400):
            f = random_formula(rng, rng.randrange(0, 5))
            assert parse_spec(format_formula(f)) == f

    def test_printed_form_pinned(self):
        """Normalized random formulas and every shipped spec, as parsed and
        normalized. Branch strings print normalized formulas, so the digest
        pins them against refactors of the formula nodes and the printer."""
        digest = hashlib.sha256()
        rng = random.Random(23)
        for _ in range(400):
            f = random_formula(rng, rng.randrange(0, 5))
            digest.update(f"{simplify(f)}\n".encode())
        for name, f in sorted(spec_library().items()):
            digest.update(f"{name}\n{f}\n{simplify(f)}\n".encode())
        assert digest.hexdigest() == (
            "f510706320d58c27101ca3d5cc5f9b239ea7efd6114df29ea6caa52df908e157"
        )

    def test_left_nested_connectives_round_trip(self):
        from mtlmon.formula import And, Or

        f = Or(Or(Atom("a"), Atom("b")), Atom("c"))
        assert parse_spec(format_formula(f)) == f
        g = And(And(Atom("a"), Atom("b")), Atom("c"))
        assert parse_spec(format_formula(g)) == g
        h = Until(Until(Atom("a"), Interval(0, 2), Atom("b")), Interval(1, 3), Atom("c"))
        assert parse_spec(format_formula(h)) == h
